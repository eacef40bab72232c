"""The four benchmark workloads: generated inputs, one timed operation, and
the correctness checks on its outputs.

Every workload uses the default 48-mode noise family (gamma = 5,
sigma = 0.1, k_max = 4).  All seeds handed to the program derive from the
benchmark's ``--seed`` through :func:`derive_seed`; the program sees only
the generated configs.  README.md in this directory says why each workload
exists and which layer metrics it is meant to move.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Calls go through module attributes, so the tracer's wrappers (installed
# in the sbq modules) see them.
from sbq import cli, config, ensemble, integrator, io, noise, operators, spectral

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
NOISE = {"type": "default_family", "gamma": 5.0, "sigma": 0.1, "k_max": 4}
DT = 1e-3
# stated bound for final-record diagnostics against reference.json: loose
# enough for round-off moves (a new FFT backend, a reordered sum), tight
# enough to catch any change of the discrete scheme
REFERENCE_RTOL = 1e-9
RESIDUAL_TOL = 1e-10
REFERENCE_SEED = 1


def derive_seed(seed: int, *parts) -> int:
    """Deterministic 63-bit seed for one input of one workload."""
    return random.Random(":".join(str(p) for p in (seed, *parts))).getrandbits(63)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class OpResult:
    """One timed operation: wall time, units of work, per-unit samples and
    the failures it produced."""

    wall_s: float
    units: int                 # steps, realizations or battery passes
    steps: int                 # time steps (battery passes on verify)
    samples_ms: list           # per-unit wall times as the run sees them
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)   # (name, ok, detail)
    results: list = field(default_factory=list)  # ensemble realization results
    checker: object = None  # deferred output checks, run after timing/tracing
    probe_ms: float = 0.0   # machine-speed probe around the operation

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, bool(ok), detail))

    def finish(self):
        if self.checker is not None:
            checker, self.checker = self.checker, None
            checker(self)


class StepClock:
    """Timestamps each call of ``sample_increments`` made by the stepping
    loop of ``sbq.integrator.run``: one call per step, so consecutive stamps
    bracket one step as the run sees it (step, records, observers).  Costs a
    clock read per step."""

    def __init__(self):
        self.stamps = []

    def attach(self, patches):
        """Wrap whatever ``sbq.integrator.sample_increments`` is now."""
        import sbq.integrator as integrator
        inner = integrator.sample_increments

        def clocked(*args, **kwargs):
            self.stamps.append(time.perf_counter())
            return inner(*args, **kwargs)

        patches.set(integrator, "sample_increments", clocked)

    def take(self, steps: int, wall_s: float) -> list:
        """Per-step samples (ms) for one run call of ``steps`` steps.  If the
        loop did not sample once per step, fall back to the call mean."""
        stamps, self.stamps = self.stamps, []
        if len(stamps) == steps and steps > 1:
            return [1000.0 * (b - a) for a, b in zip(stamps, stamps[1:])]
        return [1000.0 * wall_s / max(steps, 1)]


def _finite_records(records) -> bool:
    return bool(records) and all(rec.is_finite() for rec in records)


def _mean_ok(omega) -> bool:
    return abs(omega.mean()) <= 1e-12 * max(1.0, spectral.l2_norm(omega))


def _record_dict(rec) -> dict:
    return {k: float(v) for k, v in vars(rec).items()}


def compare_reference(name: str, final: dict) -> tuple[bool, str]:
    ref = json.loads(REFERENCE_PATH.read_text()).get(name)
    if not ref or set(ref) != set(final):
        return False, f"reference.json has no matching record for {name}"
    worst_key, worst = "", 0.0
    for key, want in ref.items():
        got = final[key]
        rel = abs(got - want) / max(abs(want), 1e-300)
        if not rel <= worst or not math.isfinite(rel):
            worst_key, worst = key, rel
    ok = math.isfinite(worst) and worst <= REFERENCE_RTOL
    return ok, f"worst relative deviation {worst:.3e} in {worst_key or '-'}"


class Workload:
    name = ""
    unit = ""
    setup_repeats_per_op = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def setup_config(self) -> dict:
        raise NotImplementedError

    def setup(self):
        """Config parsed -> grid, noise basis, initial state and scheme built."""
        return self.setup_from(self.setup_config())

    @staticmethod
    def setup_from(raw: dict):
        cfg = config.parse_config(raw)
        grid = spectral.Grid(cfg.n)
        return (cfg, grid, config.build_noise_basis(cfg, grid),
                config.build_initial_state(cfg, grid), config.build_scheme(cfg))

    def reference_final(self) -> dict:
        """Final-record diagnostics of the fixed-seed reference case."""
        raise NotImplementedError

    def reference_checks(self) -> list:
        ok, detail = compare_reference(self.name, self.reference_final())
        return [(f"{self.name}: final record matches reference", ok, detail)]

    def prepare(self):
        """Build what every operation reuses; stepping workloads get a clock."""
        self.clock = StepClock() if self.unit == "step" else None

    def op(self, k: int) -> OpResult:
        raise NotImplementedError


class HeunDiag(Workload):
    """`sbq simulate` in-process: Stratonovich Heun, plain, n = 128."""

    name = "heun-n128-diag"
    unit = "step"

    @property
    def n(self):
        return 32 if self.smoke else 128

    @property
    def steps(self):
        return 3 if self.smoke else 20

    def config(self, run_seed: int, initial_seed: int, steps: int) -> dict:
        return {
            "n": self.n, "T": steps * DT, "dt": DT,
            "scheme": "stratonovich_heun", "variant": "plain",
            "seed": run_seed,
            "initial": {"type": "random_hs", "seed": initial_seed},
            "noise": NOISE,
            "snapshot_interval": 10, "diagnostics_interval": 1,
        }

    def setup_config(self):
        return self.config(derive_seed(self.seed, self.name, "setup"),
                           derive_seed(self.seed, self.name, "setup-initial") % 2**31,
                           self.steps)

    def _simulate(self, tag: str, cfg: dict):
        out = self.workdir / tag
        path = self.workdir / f"{tag}.json"
        path.write_text(json.dumps(cfg))
        t0 = time.perf_counter()
        rc = cli.main(["simulate", "--config", str(path), "--out", str(out), "--quiet"])
        return rc, time.perf_counter() - t0, out

    def reference_final(self):
        cfg = dict(self.config(REFERENCE_SEED, 0, 3), n=128)
        rc, _, out = self._simulate("reference", cfg)
        try:
            return _record_dict(io.read_diagnostics_csv(out / "diagnostics.csv")[-1])
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def op(self, k):
        cfg = self.config(derive_seed(self.seed, self.name, k),
                          derive_seed(self.seed, self.name, "initial", k) % 2**31,
                          self.steps)
        self.clock.stamps = []
        try:
            rc, wall, out = self._simulate(f"op{k}", cfg)
        except Exception as exc:  # a step that raises fails the whole call
            res = OpResult(0.0, 0, 0, [], attempted=self.steps, failed=self.steps)
            res.check("simulate returns", False, f"{type(exc).__name__}: {exc}")
            return res
        if not (out / "manifest.json").exists():  # aborted before writing output
            res = OpResult(wall, 0, 0, [], attempted=self.steps, failed=self.steps)
            res.check("simulate writes its manifest", False, f"rc={rc}")
            return res
        manifest = json.loads((out / "manifest.json").read_text())
        steps = int(manifest["steps_taken"])
        res = OpResult(wall, steps, steps, self.clock.take(steps, wall),
                       attempted=self.steps, failed=self.steps - steps)

        def checker(res):
            try:
                res.check("exit code 0", rc == 0, f"rc={rc}")
                res.check("no BlowUpSuspected", not manifest["blowup_suspected"])
                records = io.read_diagnostics_csv(out / "diagnostics.csv")
                res.check("one record per step", len(records) == steps + 1,
                          f"{len(records)} records")
                res.check("every record finite", _finite_records(records))
                final = io.read_snapshot(out / "snapshots" / f"step_{steps:08d}.sbq")
                res.check("omega mean at zero", _mean_ok(final.omega))
            finally:
                shutil.rmtree(out, ignore_errors=True)

        res.checker = checker
        return res


class ItoTrunc(Workload):
    """Ito Euler-Maruyama, truncated variant, n = 64, records at the ends."""

    name = "ito-n64-trunc"
    unit = "step"
    # default random_hs state: ||grad u||_inf ~ 0.25, ||grad theta||_inf ~ 0.20,
    # so r = 0.15 starts both cutoffs eta_u, eta_theta strictly inside (0, 1)
    R = 0.15

    # the eta window above holds for the n = 64 state, so smoke runs keep n
    n = 64

    @property
    def steps(self):
        return 2 if self.smoke else 10

    def config(self, run_seed: int, steps: int, n: int) -> dict:
        return {
            "n": n, "T": steps * DT, "dt": DT,
            "scheme": "ito_euler", "variant": "truncated", "r": self.R,
            "seed": run_seed,
            "initial": {"type": "random_hs"},
            "noise": NOISE,
            "diagnostics_interval": 1 << 30,
        }

    def setup_config(self):
        return self.config(derive_seed(self.seed, self.name, "setup"), self.steps, self.n)

    def prepare(self):
        super().prepare()
        self.cfg, self.grid, self.basis, _, self.scheme = self.setup()

    @staticmethod
    def _run(cfg, basis, state0, scheme):
        rng = np.random.default_rng(noise.mix_seed(cfg.seed, 0))
        return integrator.run(state0, basis, scheme, cfg.T, rng=rng,
                              diag_interval=cfg.diagnostics_interval, p=cfg.p)

    def reference_final(self):
        cfg, grid, basis, state0, scheme = self.setup_from(
            self.config(REFERENCE_SEED, 2, 64))
        return _record_dict(self._run(cfg, basis, state0, scheme).records[-1])

    def op(self, k):
        cfg = config.parse_config(self.config(derive_seed(self.seed, self.name, k),
                                              self.steps, self.n))
        # a fresh state per operation: a reused one would keep cached
        # physical values and skip transforms the first record needs
        state0 = config.build_initial_state(cfg, self.grid)
        self.clock.stamps = []
        t0 = time.perf_counter()
        try:
            traj = self._run(cfg, self.basis, state0, self.scheme)
        except Exception as exc:
            res = OpResult(0.0, 0, 0, [], attempted=self.steps, failed=self.steps)
            res.check("run returns", False, f"{type(exc).__name__}: {exc}")
            return res
        wall = time.perf_counter() - t0
        steps = traj.steps_taken
        res = OpResult(wall, steps, steps, self.clock.take(steps, wall),
                       attempted=self.steps, failed=self.steps - steps)

        def checker(res):
            res.check("no BlowUpSuspected", not traj.blowup_suspected)
            res.check("records at start and end only", len(traj.records) == 2,
                      f"{len(traj.records)} records")
            res.check("every record finite", _finite_records(traj.records))
            res.check("omega mean at zero", _mean_ok(traj.final_state.omega))
            first = traj.records[0]
            inside = all(self.R < g < 2 * self.R
                         for g in (first.linf_grad_u, first.linf_grad_theta))
            res.check("eta_u, eta_theta start inside (0, 1)", inside,
                      f"grad sups {first.linf_grad_u:.3f}, {first.linf_grad_theta:.3f}")

        res.checker = checker
        return res


class EnsembleHyper(Workload):
    """run_ensemble of the Heun hyper variant at n = 64, sparse records."""

    name = "ensemble-n64-hyper"
    unit = "realization"
    REALIZATIONS = 8  # >= 4 x workers for workers <= 2

    @property
    def workers(self):
        return min(2, nproc())

    @property
    def realizations(self):
        return self.workers if self.smoke else self.REALIZATIONS

    @property
    def steps(self):
        return 3 if self.smoke else 25

    @property
    def n(self):
        return 32 if self.smoke else 64

    def config(self, initial_seed: int, steps: int, n: int) -> dict:
        return {
            "n": n, "T": steps * DT, "dt": DT,
            "scheme": "stratonovich_heun", "variant": "hyper",
            "r": 0.5, "nu": 1e-12,
            "seed": 0,
            "initial": {"type": "random_hs", "seed": initial_seed},
            "noise": NOISE,
            "diagnostics_interval": 25,
        }

    def setup_config(self):
        return self.config(derive_seed(self.seed, self.name, "setup") % 2**31,
                           self.steps, self.n)

    def reference_final(self):
        cfg = config.parse_config(self.config(0, 3, 64))
        summary, _ = ensemble.run_ensemble(ensemble.EnsembleConfig(cfg, 2, REFERENCE_SEED, 1))
        return {f: float(summary.stats[f]["mean"][-1]) for f in summary.stats}

    def op(self, k):
        raw = self.config(derive_seed(self.seed, self.name, "initial", k) % 2**31,
                          self.steps, self.n)
        ecfg = ensemble.EnsembleConfig(config.parse_config(raw), self.realizations,
                                       derive_seed(self.seed, self.name, k), self.workers)
        t0 = time.perf_counter()
        try:
            summary, results = ensemble.run_ensemble(ecfg)
        except Exception as exc:
            res = OpResult(0.0, 0, 0, [], attempted=self.realizations,
                           failed=self.realizations)
            res.check("run_ensemble returns", False, f"{type(exc).__name__}: {exc}")
            return res
        wall = time.perf_counter() - t0
        n_ok = sum(1 for r in results if not r.failed)
        res = OpResult(wall, len(results), n_ok * self.steps,
                       [1000.0 * wall / len(results)],
                       attempted=self.realizations,
                       failed=self.realizations - n_ok, results=results)
        res.check("no failed realizations", not summary.failed, str(summary.failed))
        expected_records = self.steps // 25 + 1 + (self.steps % 25 != 0)
        res.check("every time index counts R",
                  len(summary.counts) == expected_records
                  and all(int(c) == self.realizations for c in summary.counts),
                  f"counts {list(map(int, summary.counts))}")
        return res


class VerifyOps(Workload):
    """The standard operators.run_verification() battery at n = 64."""

    name = "verify-ops-n64"
    unit = "pass"
    setup_repeats_per_op = 3
    CHECKS = {"cancellation": "max_scaled_residual",
              "adjoint_defect": "max_relative_defect",
              "lie_antisymmetry": "max_relative_defect"}

    # the battery's baselines hold at its standard n = 64; smoke runs keep it
    n = 64

    def kwargs(self):
        return {"samples": 3, "pairs": 3} if self.smoke else {}

    def setup(self):
        """Battery grid plus one draw of each random input it uses."""
        grid = spectral.Grid(self.n)
        rng = np.random.default_rng(derive_seed(self.seed, self.name, "setup"))
        band = self.n // 6 - 1
        return (grid, spectral.random_divergence_free(grid, rng, band),
                spectral.random_field(grid, rng, band))

    def reference_checks(self):
        return []

    def op(self, k):
        # The battery's ratio checks compare against baselines recorded over
        # its standard random ensemble, with a 1.5x margin; other seeds can
        # exceed them (general_ratio_k0 reaches 0.98 of its limit within 400
        # seeds), so every pass runs the standard ensemble.
        t0 = time.perf_counter()
        try:
            report = operators.run_verification(**self.kwargs())
        except Exception as exc:
            res = OpResult(0.0, 0, 0, [], attempted=1, failed=1)
            res.check("run_verification returns", False, f"{type(exc).__name__}: {exc}")
            return res
        wall = time.perf_counter() - t0
        checks = report["checks"]
        n_failed = sum(1 for c in checks.values() if not c["pass"])
        res = OpResult(wall, 1, 1, [1000.0 * wall],
                       attempted=len(checks), failed=n_failed)
        res.check('report["pass"]', report["pass"])
        for name, key in self.CHECKS.items():
            value = checks[name][key]
            res.check(f"{name} residual <= {RESIDUAL_TOL:g}", value <= RESIDUAL_TOL,
                      f"{value:.3e}")
        return res


WORKLOADS = {w.name: w for w in (HeunDiag, ItoTrunc, EnsembleHyper, VerifyOps)}
