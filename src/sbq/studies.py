"""Deterministic conservation and refinement studies.

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
"""

from __future__ import annotations

import numpy as np

from .config import random_hs_field
from .diagnostics import conservation_defects, gronwall_report, lp_magnitude
from .integrator import SchemeConfig, Trajectory, _lane_steps, run
from .noise import empty_basis
from .spectral import Grid, SpectralField, l2_norm
from .state import SimState

__all__ = [
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


def _tg_random_state(grid: Grid, seed: int = 42) -> SimState:
    omega0 = SpectralField.from_physical(
        grid, 2.0 * np.sin(grid.x) * np.sin(grid.y))
    theta0 = random_hs_field(grid, 3.0, np.random.default_rng(seed), amplitude=1.0)
    return SimState(omega0, theta0)


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
    defects = {}
    finest_records = None
    finest_lps = None
    for dt in dts:
        lp_series = {2.0: [], 4.0: [], 8.0: []}
        results = [Trajectory(final_state=state0)]
        cfg = SchemeConfig("stratonovich_heun", dt=dt)
        for _, lanes in _lane_steps(results, basis, cfg, T, diag_interval=1):
            for p, series in lp_series.items():  # the samples the record has read
                series.append(lp_magnitude(*lanes.grad_theta[0], p))
        (traj,) = results
        if isinstance(traj, Exception):
            raise traj
        defects[dt] = conservation_defects(traj.records, dt)
        finest_records, finest_lps = traj.records, lp_series
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
    gronwall = gronwall_report(finest_records, finest_lps)
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
