"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Stated tolerances are pinned here; stochastic criteria use frozen
master seeds with path-shared dt refinement (the measured orders were
verified to be stable across seeds during calibration).

Criterion 6 checks each zero-noise Heun invariant at the order the scheme
delivers.  The quartic enstrophy and the kinetic-energy balance refine at
the scheme's order 2 (defect ratio window [3.4, 4.6]).  The quadratic
enstrophy refines at order 3 (window [6.8, 9.2], i.e. 8 * (1 +- 0.15), the
same relative width) because the discrete transport is exactly
skew-adjoint: for Heun with skew-adjoint stage operators A0 and A1 the
one-step norm defect is (dt^2/4) ||(A0 - A1) theta||^2 + O(dt^4), and
A0 - A1 = O(dt), so the defect is O(dt^4) per step and O(dt^3) over the
run.  A ratio near 4 there means the transport lost its skew-adjointness, a
ratio near 2 that Heun lost its order.  The derivation is in the README
("Conservation behaviour") and the ``sbq.studies`` docstring; the oracle
tests in ``tests/test_integrator.py`` check its one-step form directly.
"""

import time

import numpy as np
import pytest

from sbq import spectral as sp
from sbq.config import random_hs_field
from sbq.diagnostics import (
    StoppingTimeReport,
    conservation_defects,
    offline_blowup_quadrature,
    update_stopping_report,
)
from sbq.integrator import SchemeConfig, _run_lanes, run, step
from sbq.noise import NoiseBasis, build_basis, constant_shift_basis, default_family
from sbq.operators import (
    BASELINES,
    adjoint_defect,
    alias_free_grid,
    cancellation_residual,
    weighted_cancellation_ratio,
    FirstOrderOp,
)
from sbq.state import SimState


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")
    return ok


def coarsen(incr, fac):
    ns = incr.shape[0] // fac
    return incr[:ns * fac].reshape(ns, fac, -1).sum(axis=1)


def empty_basis(grid):
    return NoiseBasis((), 0.0, grid, 0.0)


def tg_random_state(grid, seed=42, amplitude=1.0):
    omega = sp.SpectralField.from_physical(
        grid, 2.0 * np.sin(grid.x) * np.sin(grid.y))
    theta = random_hs_field(grid, 3.0, np.random.default_rng(seed), amplitude)
    return SimState(omega, theta)


def test_criterion_1_exact_lie_cancellation():
    t0 = time.time()
    band = 10
    grid = alias_free_grid(band, band)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        xi = sp.random_divergence_free(grid, rng, band)
        f = sp.random_field(grid, rng, band)
        res = abs(cancellation_residual(xi, f))
        worst = max(worst, res / max(1.0, sp.sobolev_norm(f, 1.0) ** 2))
    ok = worst <= 1e-10
    assert report(1, ok, f"max scaled residual {worst:.2e} <= 1e-10, "
                  f"{time.time() - t0:.1f}s")


def test_criterion_2_adjoint_defect_identity():
    t0 = time.time()
    grid = sp.Grid(64)
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        q = FirstOrderOp(sp.random_field(grid, rng, band=6),
                         sp.random_field(grid, rng, band=6),
                         sp.random_field(grid, rng, band=6))
        f = sp.random_field(grid, rng, band=8)
        g = sp.random_field(grid, rng, band=8)
        rel = abs(adjoint_defect(q, f, g)) / max(1.0, sp.l2_norm(f) * sp.l2_norm(g))
        worst = max(worst, rel)
    ok = worst <= 1e-10
    assert report(2, ok, f"max relative defect {worst:.2e} <= 1e-10, "
                  f"{time.time() - t0:.1f}s")


def test_criterion_3_weighted_estimate_boundedness():
    t0 = time.time()
    grid = sp.Grid(64)
    rng = np.random.default_rng(103)
    xi = sp.stream_to_velocity(sp.SpectralField.from_physical(
        grid,
        0.7 * np.sin(grid.y)
        + 0.4 * np.cos(grid.x) * np.cos(grid.y)
        + 0.2 * np.sin(2 * grid.x + grid.y)))
    ok = True
    details = []
    for k in (1, 2, 3):
        ratios = [abs(weighted_cancellation_ratio(
            float(k), xi, sp.random_field(grid, rng, band=12,
                                          amplitude=float(1 + i % 7))))
            for i in range(100)]
        measured = max(ratios)
        baseline = BASELINES[f"weighted_ratio_k{k}"]
        ok = ok and measured <= 1.5 * baseline
        details.append(f"k={k}: {measured:.3f} <= 1.5*{baseline}")
    # single-mode sweep with the standard two-harmonic stream function
    xi_sweep = sp.stream_to_velocity(sp.SpectralField.from_physical(
        grid, np.sin(grid.y) + 0.5 * np.sin(2 * grid.y)))
    sweep = [abs(weighted_cancellation_ratio(2.0, xi_sweep,
             sp.SpectralField.from_physical(grid, np.cos(m * grid.x))))
             for m in range(1, 9)]
    spread = max(sweep) / min(sweep)
    ok = ok and spread <= 2.0
    details.append(f"sweep max/min {spread:.3f} <= 2")
    assert report(3, ok, "; ".join(details) + f", {time.time() - t0:.1f}s")


def test_criterion_4_biot_savart_closure():
    t0 = time.time()
    grid = sp.Grid(64)
    rng = np.random.default_rng(104)
    worst_curl, worst_div, worst_ratio = 0.0, 0.0, 0.0
    for _ in range(50):
        omega = sp.random_field(grid, rng, band=15, zero_mean=True)
        u = sp.biot_savart(omega)
        curl = sp.derivative(u.u2, "x") - sp.derivative(u.u1, "y")
        norm = sp.l2_norm(omega)
        worst_curl = max(worst_curl, sp.l2_norm(curl - omega) / norm)
        unorm = np.hypot(sp.l2_norm(u.u1), sp.l2_norm(u.u2))
        worst_div = max(worst_div, sp.l2_norm(u.divergence()) / max(unorm, 1e-30))
        for k in (0, 1, 2):
            ratio = sp.velocity_sobolev_norm(u, k + 1.0) / sp.sobolev_norm(omega, float(k))
            worst_ratio = max(worst_ratio, ratio)
    ok = (worst_curl <= 1e-12 and worst_div <= 1e-12
          and worst_ratio <= np.sqrt(2) + 1e-9)
    assert report(4, ok, f"curl defect {worst_curl:.2e}, div {worst_div:.2e}, "
                  f"H-ratio {worst_ratio:.12f} <= sqrt2+1e-9, "
                  f"{time.time() - t0:.1f}s")


def test_criterion_5_deterministic_stationarity():
    t0 = time.time()
    grid = sp.Grid(64)
    omega0 = sp.SpectralField.from_physical(grid, np.cos(grid.x))
    state = SimState(omega0, sp.SpectralField.zero(grid))
    cfg = SchemeConfig("stratonovich_heun", dt=1e-2)
    traj = run(state, empty_basis(grid), cfg, T=10.0, diag_interval=10**9)
    defect = sp.l2_norm(traj.final_state.omega - omega0)
    ok = defect <= 1e-8
    assert report(5, ok, f"L2 drift {defect:.2e} <= 1e-8 over T=10, "
                  f"{time.time() - t0:.1f}s")


def _conservation_study():
    grid = sp.Grid(128)
    state0 = tg_random_state(grid)
    dts = (1e-2, 5e-3, 2.5e-3)
    defects = {}
    for dt in dts:
        traj = run(state0, empty_basis(grid),
                   SchemeConfig("stratonovich_heun", dt=dt), T=1.0,
                   diag_interval=1)
        defects[dt] = conservation_defects(traj.records, dt)
    ratios = {}
    for key in ("enstrophy2_defect", "enstrophy4_defect", "ke_balance_residual"):
        vals = [defects[dt][key] for dt in dts]
        ratios[key] = [a / b for a, b in zip(vals, vals[1:])]
    return ratios


@pytest.fixture(scope="module")
def conservation_ratios():
    return _conservation_study()


def test_criterion_6_theta4_and_energy_order(conservation_ratios):
    t0 = time.time()
    r4 = conservation_ratios["enstrophy4_defect"]
    rke = conservation_ratios["ke_balance_residual"]
    ok = all(3.4 <= r <= 4.6 for r in r4 + rke)
    assert report("6 (theta^4, KE balance)", ok,
                  f"theta^4 ratios {[f'{r:.2f}' for r in r4]}, "
                  f"KE ratios {[f'{r:.2f}' for r in rke]} in [3.4, 4.6], "
                  f"{time.time() - t0:.1f}s")


def test_criterion_6_theta2_window_as_stated(conservation_ratios):
    # The quadratic enstrophy refines at order 3 (ratio ~8), not the scheme's
    # order 2: skew-adjoint transport makes the Heun one-step norm defect
    # O(dt^4) (see module docstring).  The window is 8 * (1 +- 0.15), as in
    # sbq.studies.ORDER3_WINDOW; a ratio of 4 or 2 falls outside it.
    r2 = conservation_ratios["enstrophy2_defect"]
    ok = all(6.8 <= r <= 9.2 for r in r2)
    assert report("6 (theta^2 order 3)", ok,
                  f"theta^2 ratios {[f'{r:.2f}' for r in r2]} in [6.8, 9.2]")


def test_criterion_7_constant_noise_change_of_variables():
    t0 = time.time()
    grid = sp.Grid(64)
    state0 = tg_random_state(grid)
    basis = constant_shift_basis("x", 1.0, grid)
    dts = [2.0**-k for k in (6, 7, 8, 9)]
    # hyper regularization keeps the explicit schemes stable at the coarse
    # end (amplitude-1 noise moves fields by ~1.3 grid spacings per step at
    # dt = 2^-6); the integrating factor is a Fourier multiplier, so it
    # commutes with the phase shift and the oracle stays exact.
    cfgs = {dt: SchemeConfig("stratonovich_heun", dt=dt, variant="hyper",
                             nu=2e-4, r=1e9) for dt in dts}
    det = {dt: run(state0, empty_basis(grid), cfgs[dt], 1.0,
                   diag_interval=10**9).final_state for dt in dts}
    master, paths = 2024, 12
    fine = [np.random.default_rng((master, j)).normal(
        0, np.sqrt(dts[-1]), size=(int(round(1.0 / dts[-1])), 1)) for j in range(paths)]
    sq = np.zeros(len(dts))
    for i, dt in enumerate(dts):
        # the paths of one dt, stepped as lanes
        incr = [coarsen(path, int(round(dt / dts[-1]))) for path in fine]
        trajs = _run_lanes([state0] * paths, basis, cfgs[dt], 1.0, increments=incr,
                           diag_interval=10**9)
        for path, traj in zip(fine, trajs):
            stoch = traj.final_state
            shift = np.exp(-1j * grid.k1 * path.sum())
            e_om = sp.l2_norm(stoch.omega - sp.SpectralField.from_coeffs(
                grid, det[dt].omega.coeffs * shift))
            e_th = sp.l2_norm(stoch.theta - sp.SpectralField.from_coeffs(
                grid, det[dt].theta.coeffs * shift))
            sq[i] += e_om**2 + e_th**2
    rms = np.sqrt(sq / paths)
    slope = float(np.polyfit(np.log2(dts), np.log2(rms), 1)[0])
    decreasing = bool(np.all(np.diff(rms) < 0))
    ok = slope >= 0.9 and decreasing
    assert report(7, ok, f"strong errors {np.array2string(rms, precision=5)}, "
                  f"measured order {slope:.3f} >= 0.9, decreasing={decreasing}, "
                  f"{time.time() - t0:.0f}s")


def test_criterion_8_ito_stratonovich_consistency():
    t0 = time.time()
    grid = sp.Grid(64)
    state0 = tg_random_state(grid)
    basis = build_basis(default_family(grid, k_max=4, max_modes=3), grid)
    dts = [2.0**-k for k in (5, 6, 7, 8, 9)]
    rng = np.random.default_rng(11)
    fine = rng.normal(0, np.sqrt(dts[-1]),
                      size=(int(round(1.0 / dts[-1])), len(basis)))
    diffs = []
    for dt in dts:
        incr = coarsen(fine, int(round(dt / dts[-1])))
        ito = run(state0, basis, SchemeConfig("ito_euler", dt=dt), 1.0,
                  increments=incr, diag_interval=10**9).final_state
        strat = run(state0, basis, SchemeConfig("stratonovich_heun", dt=dt), 1.0,
                    increments=incr, diag_interval=10**9).final_state
        diffs.append(sp.l2_norm(ito.omega - strat.omega))
    decreasing = all(b < a for a, b in zip(diffs, diffs[1:]))
    final_frac = diffs[-1] / diffs[0]
    ok = decreasing and final_frac <= 0.10
    assert report(8, ok, f"L2 gaps {np.array2string(np.array(diffs), precision=5)}, "
                  f"strictly decreasing={decreasing}, final/first "
                  f"{final_frac:.3f} <= 0.10, {time.time() - t0:.0f}s")


def test_criterion_9_pathwise_tracer_norm():
    t0 = time.time()
    grid = sp.Grid(64)
    state0 = tg_random_state(grid)
    theta_norm0 = sp.l2_norm(state0.theta)
    basis = build_basis(default_family(grid, k_max=1, sigma=0.2), grid)
    dts = [2.0**-k for k in (7, 8, 9)]
    master, paths = 42, 8
    fine = [np.random.default_rng((master, j)).normal(
        0, np.sqrt(dts[-1]), size=(int(round(1.0 / dts[-1])), len(basis)))
        for j in range(paths)]
    acc = np.zeros(len(dts))
    for i, dt in enumerate(dts):
        # the paths of one dt, stepped as lanes
        incr = [coarsen(path, int(round(dt / dts[-1]))) for path in fine]
        trajs = _run_lanes([state0] * paths, basis, SchemeConfig("stratonovich_heun", dt=dt),
                           1.0, increments=incr, diag_interval=10**9)
        for traj in trajs:
            acc[i] += abs(sp.l2_norm(traj.final_state.theta) - theta_norm0)
    mean = acc / paths
    ratios = (mean[:-1] / mean[1:]).tolist()
    ok = all(1.7 <= r <= 2.3 for r in ratios)
    assert report(9, ok, f"mean |defect| {np.array2string(mean, precision=3)}, "
                  f"halving ratios {[f'{r:.2f}' for r in ratios]} in [1.7, 2.3], "
                  f"{time.time() - t0:.0f}s")


def test_criterion_10_truncation_semantics():
    t0 = time.time()
    grid = sp.Grid(64)
    rng = np.random.default_rng(110)
    omega = sp.random_field(grid, rng, band=8, zero_mean=True, amplitude=2.0)
    theta = sp.random_field(grid, rng, band=8, amplitude=2.0)
    state = SimState(omega, theta)
    basis = build_basis([((1, 0), "sine", 0.1)], grid)
    from sbq.noise import sample_increments
    db = sample_increments(np.random.default_rng(111), 0.01, 1)
    below_ok = True
    big_r = 10.0 * sum(state.grad_sups) + 10.0
    for scheme in ("ito_euler", "stratonovich_heun"):
        plain = step(state, basis, db, SchemeConfig(scheme, dt=0.01))
        trunc = step(state, basis, db, SchemeConfig(
            scheme, dt=0.01, variant="truncated", r=big_r))
        below_ok = below_ok and np.array_equal(plain.omega.coeffs, trunc.omega.coeffs) \
            and np.array_equal(plain.theta.coeffs, trunc.theta.coeffs)
    tiny_r = min(state.grad_sups) / 2.5
    trunc0 = step(state, basis, db, SchemeConfig(
        "ito_euler", dt=0.01, variant="truncated", r=tiny_r))
    hooked = step(state, basis, db, SchemeConfig("ito_euler", dt=0.01,
                                                 drift_enabled=False))
    manual = hooked.omega + 0.01 * sp.derivative(theta, "x")
    above_ok = (np.max(np.abs(trunc0.omega.coeffs - manual.coeffs))
                <= 1e-12 * np.max(np.abs(manual.coeffs))
                and np.array_equal(trunc0.theta.coeffs, hooked.theta.coeffs))
    ok = below_ok and above_ok
    assert report(10, ok, f"below-threshold bit-identical={below_ok}, "
                  f"above-2r zero advection={above_ok}, {time.time() - t0:.1f}s")


def test_criterion_11_hyper_regularization():
    t0 = time.time()
    grid = sp.Grid(64)
    rng = np.random.default_rng(112)
    omega = sp.random_field(grid, rng, band=8, zero_mean=True)
    theta = sp.random_field(grid, rng, band=8)
    state = SimState(omega, theta)
    basis = build_basis([((0, 1), "cosine", 0.1)], grid)
    from sbq.noise import sample_increments
    db = sample_increments(np.random.default_rng(113), 0.01, 1)
    trunc = step(state, basis, db, SchemeConfig(
        "stratonovich_heun", dt=0.01, variant="truncated", r=5.0))
    hyper0 = step(state, basis, db, SchemeConfig(
        "stratonovich_heun", dt=0.01, variant="hyper", r=5.0, nu=0.0))
    reduce_ok = (np.array_equal(trunc.omega.coeffs, hyper0.omega.coeffs)
                 and np.array_equal(trunc.theta.coeffs, hyper0.theta.coeffs))
    nu, dt = 1e-4, 0.01
    pure = SimState(sp.SpectralField.from_physical(grid, np.cos(2 * grid.x)),
                    sp.SpectralField.zero(grid))
    cfg = SchemeConfig("stratonovich_heun", dt=dt, variant="hyper", r=1e9,
                       nu=nu, drift_enabled=False)
    from sbq.noise import BrownianIncrements
    out = step(pure, empty_basis(grid), BrownianIncrements(np.zeros(0), dt),
                     cfg)
    expect = np.cos(2 * grid.x) * np.exp(-nu * 2.0**10 * dt)
    decay_err = float(np.max(np.abs(out.omega.values() - expect))
                      / np.max(np.abs(expect)))
    ok = reduce_ok and decay_err <= 1e-12
    assert report(11, ok, f"nu=0 bit-identical={reduce_ok}, decay error "
                  f"{decay_err:.2e} <= 1e-12, {time.time() - t0:.1f}s")


def test_criterion_12_ensemble_reproducibility(tmp_path):
    t0 = time.time()
    import json
    from sbq.cli import main
    cfg = {
        "n": 64, "T": 0.1, "dt": 0.01, "scheme": "stratonovich_heun",
        "seed": 2025, "initial": "taylor_green",
        "noise": {"type": "default_family", "k_max": 2, "sigma": 0.1},
        "realizations": 4,
    }
    path = tmp_path / "ens.json"
    path.write_text(json.dumps(cfg))
    rc1 = main(["ensemble", "--config", str(path), "--quiet",
                "--out", str(tmp_path / "w1"), "--workers", "1"])
    rc4 = main(["ensemble", "--config", str(path), "--quiet",
                "--out", str(tmp_path / "w4"), "--workers", "4"])
    b1 = (tmp_path / "w1" / "summary.csv").read_bytes()
    b4 = (tmp_path / "w4" / "summary.csv").read_bytes()
    ok = rc1 == 0 and rc4 == 0 and b1 == b4
    assert report(12, ok, f"summary.csv bit-identical for workers 1 vs 4 "
                  f"({len(b1)} bytes), {time.time() - t0:.0f}s")


def test_criterion_13_blowup_bookkeeping():
    t0 = time.time()
    grid = sp.Grid(64)
    state0 = tg_random_state(grid, amplitude=1.5)
    basis = build_basis(default_family(grid, k_max=2, sigma=0.1), grid)
    cfg = SchemeConfig("stratonovich_heun", dt=0.01)
    traj = run(state0, basis, cfg, T=1.0, rng=np.random.default_rng(7),
               diag_interval=1)
    final_accum = traj.records[-1].blowup_accum
    offline = offline_blowup_quadrature(traj.records)
    quad_ok = abs(final_accum - offline) <= 1e-12
    monotone_ok = all(b.blowup_accum >= a.blowup_accum
                      for a, b in zip(traj.records, traj.records[1:]))
    levels = tuple(0.25 * i for i in range(1, 9))
    stopping = StoppingTimeReport.new(levels)
    for rec in traj.records:
        update_stopping_report(stopping, rec)
    tau2 = [stopping.tau2_crossings[n] for n in levels
            if n in stopping.tau2_crossings]
    tauinf = [stopping.tauinf_crossings[n] for n in levels
              if n in stopping.tauinf_crossings]
    crossings_ok = tau2 == sorted(tau2) and tauinf == sorted(tauinf) and tauinf
    embed_ok = all(np.isfinite(r.embedding_ratio) for r in traj.records)
    # crossing consistency: gradient-monitor crossings at level n happen no
    # later than norm crossings at n / C with C the run's max embedding ratio
    c_run = max(r.embedding_ratio for r in traj.records)
    consistent = True
    for n in levels:
        g_cross = next((r.t for r in traj.records
                        if r.linf_grad_u + r.linf_grad_theta >= n), None)
        if g_cross is None:
            continue
        norm_cross = next((r.t for r in traj.records
                           if r.h2_omega + r.h3_theta >= n / c_run), None)
        consistent = consistent and norm_cross is not None and norm_cross <= g_cross
    ok = bool(quad_ok and monotone_ok and crossings_ok and embed_ok and consistent)
    assert report(13, ok, f"quadrature gap {abs(final_accum - offline):.2e} <= "
                  f"1e-12, crossings monotone={bool(crossings_ok)}, embedding "
                  f"finite={embed_ok}, consistency={consistent}, "
                  f"{time.time() - t0:.0f}s")
