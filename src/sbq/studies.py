"""Conservation and refinement studies.

These back the ``verify-conservation`` subcommand and the acceptance suite.

Expected refinement behaviour of the Heun scheme on the dealiased spectral
discretization, measured over a dt-halving pair:

* kinetic-energy balance residual: defect ratio ~4 (order 2);
* quartic enstrophy (theta^4 integral): defect ratio ~4 (order 2);
* quadratic enstrophy (theta^2 integral): defect ratio ~8 (order 3).  The
  quadratic invariant is superconvergent because the discrete transport is
  exactly skew-adjoint: the O(dt^2) term of the per-step norm defect
  collapses to (dt^2/4) * ||(A0 - A1) theta||^2 with A0 - A1 = O(dt), and
  the O(dt^3) term vanishes by the same antisymmetry.

The study asserts the order-3 window for the quadratic enstrophy and the
order-2 window for the other two; ratios are reported so regressions in
either direction are visible.

The stochastic dt-refinement criteria share one harness.
:func:`brownian_paths` draws one fine Brownian path per seed, and
:func:`refine` steps every path at each config's dt (the path summed to
that dt) as lanes of one stack, returning the table of final states.  The
reduction is left to the caller, since each criterion measures against its
own reference (deterministic runs, another scheme, the initial norm), and
so are the slope or ratio windows.
"""

from __future__ import annotations

import numpy as np

from .config import random_hs_field
from .diagnostics import conservation_defects, gronwall_report, lp_magnitude
from .integrator import SchemeConfig, Trajectory, _lane_steps, _run_lanes, run
from .noise import NoiseBasis, empty_basis
from .spectral import Grid, SpectralField, l2_norm
from .state import SimState

__all__ = [
    "brownian_paths",
    "refine",
    "stationarity_study",
    "conservation_order_study",
    "run_conservation_battery",
]

ORDER2_WINDOW = (3.4, 4.6)
ORDER3_WINDOW = (6.8, 9.2)


def stationarity_study(n: int = 64, dt: float = 1e-2, T: float = 10.0) -> dict:
    """Zero-noise Heun run of the stationary state omega = cos x."""
    grid = Grid(n)
    omega0 = SpectralField.from_physical(grid, np.cos(grid.x))
    state = SimState(omega0, SpectralField.zero(grid))
    cfg = SchemeConfig("stratonovich_heun", dt=dt)
    traj = run(state, empty_basis(grid), cfg, T, diag_interval=10**9)
    defect = l2_norm(traj.final_state.omega - omega0)
    return {
        "n": n, "dt": dt, "T": T,
        "final_l2_defect": defect,
        "tolerance": 1e-8,
        "pass": defect <= 1e-8,
    }


def _tg_random_state(grid: Grid, seed: int = 42, amplitude: float = 1.0) -> SimState:
    """Taylor-Green omega with a random H^3 theta of the given amplitude."""
    omega0 = SpectralField.from_physical(grid, 2.0 * np.sin(grid.x) * np.sin(grid.y))
    theta0 = random_hs_field(grid, 3.0, np.random.default_rng(seed), amplitude=amplitude)
    return SimState(omega0, theta0)


def brownian_paths(seeds, dt: float, T: float, m: int) -> list:
    """One path of ``T / dt`` steps of ``m`` Brownian increments per seed,
    drawn as ``default_rng(seed).normal(0, sqrt(dt), (T / dt, m))``.

    ``T`` is the span the path covers, not an end time: a path for
    :func:`refine` must be drawn with ``T = T_end - state0.t``.
    """
    return [np.random.default_rng(seed).normal(0, np.sqrt(dt), size=(int(round(T / dt)), m))
            for seed in seeds]


def refine(state0: SimState, basis: NoiseBasis, cfgs, T: float, paths) -> list:
    """Final states of every path at every config's dt: one row per config,
    one entry per path.

    ``T`` is the end time.  The paths must span exactly ``T - state0.t`` at
    the step they were drawn with, since that step is inferred as
    ``(T - state0.t) / len(path)``: a path drawn for another span or start
    time would be stepped with increments of the wrong variance, and no
    check can see it.  Each config's dt must be a whole multiple of the
    step that splits the paths.

    A row sums each path to its config's dt and steps them as the lanes of
    one :func:`_run_lanes` call, so each entry is bit for bit the ``run`` of
    its summed path.  A lane that failed raises its exception (a
    ``TimeStepError`` or the mean guard's ``AssertionError``); a lane that
    blew up gives its last finite state, as ``run`` does.
    """
    lengths = sorted({len(path) for path in paths})
    if len(lengths) != 1:
        raise ValueError(f"paths must be one or more of equal length, got lengths {lengths}")
    steps = lengths[0]
    fine = (T - state0.t) / steps
    table = []
    for cfg in cfgs:
        fac = round(cfg.dt / fine)
        if fac < 1 or abs(cfg.dt / fine - fac) > 1e-9 or steps % fac:
            raise ValueError(f"config dt {cfg.dt} is not a whole multiple of the paths' "
                             f"step {fine} that splits their {steps} steps")
        summed = [path.reshape(steps // fac, fac, path.shape[1]).sum(axis=1) for path in paths]
        trajs = _run_lanes([state0] * len(paths), basis, cfg, T, increments=summed,
                           diag_interval=10**9)
        for traj in trajs:
            if isinstance(traj, Exception):
                raise traj
        table.append([traj.final_state for traj in trajs])
    return table


def conservation_order_study(n: int = 128, dts=(1e-2, 5e-3, 2.5e-3),
                             T: float = 1.0, seed: int = 42) -> dict:
    """Taylor-Green + random theta, zero noise, Heun, dt-refinement.

    Also evaluates the transport-growth (Gronwall-style) ratios of
    ||grad theta||_p for p in {2, 4, 8} at the finest dt; these are reported
    and only checked to be finite.
    """
    grid = Grid(n)
    state0 = _tg_random_state(grid, seed)
    basis = empty_basis(grid)
    defects, lp_series = {}, {2.0: [], 4.0: [], 8.0: []}
    for i, dt in enumerate(dts):
        results = [Trajectory(final_state=state0)]
        cfg = SchemeConfig("stratonovich_heun", dt=dt)
        for _, lanes in _lane_steps(results, basis, cfg, T, diag_interval=1):
            if i == len(dts) - 1:  # only the finest dt's ||grad theta||_p series is reported
                for p, series in lp_series.items():  # the samples the record has read
                    series.append(lp_magnitude(*lanes.grad_theta[0], p))
        (traj,) = results
        if isinstance(traj, Exception):
            raise traj
        defects[dt] = conservation_defects(traj.records, dt)
    quantities = {
        "enstrophy2_defect": ORDER3_WINDOW,
        "enstrophy4_defect": ORDER2_WINDOW,
        "ke_balance_residual": ORDER2_WINDOW,
    }
    out = {"n": n, "T": T, "dts": list(dts), "defects":
           {str(dt): defects[dt] for dt in dts}, "ratios": {}, "pass": True}
    for key, window in quantities.items():
        vals = [defects[dt][key] for dt in dts]
        ratios = [a / b if b > 0 else float("inf") for a, b in zip(vals, vals[1:])]
        ok = all(window[0] <= r <= window[1] for r in ratios)
        out["ratios"][key] = {"values": ratios, "window": list(window), "pass": ok}
        out["pass"] = out["pass"] and ok
    gronwall = gronwall_report(traj.records, lp_series)  # the finest dt's
    finite = all(np.isfinite(v) for v in gronwall["ratios"].values())
    gronwall["pass"] = finite
    out["gronwall"] = gronwall
    out["pass"] = out["pass"] and finite
    return out


def run_conservation_battery(fast: bool = False) -> dict:
    """Stationarity plus the conservation order study; the verify CLI's body.

    ``fast`` trims the horizons and the dt ladder but keeps n = 128: on the
    coarser grid the quartic-enstrophy defect bottoms out at the spatial
    dealiasing floor before the temporal order is visible.
    """
    stationarity = stationarity_study(T=2.0 if fast else 10.0)
    order = conservation_order_study(dts=(1e-2, 5e-3) if fast else (1e-2, 5e-3, 2.5e-3))
    return {
        "stationarity": stationarity,
        "conservation_order": order,
        "pass": stationarity["pass"] and order["pass"],
    }
