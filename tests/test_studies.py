"""Conservation battery behind the verify-conservation subcommand."""

import numpy as np

from sbq.integrator import SchemeConfig, run
from sbq.noise import empty_basis
from sbq.spectral import Grid
from sbq.studies import (
    _tg_random_state,
    conservation_order_study,
    run_conservation_battery,
    stationarity_study,
)
from oracles import count_ffts


def test_stationarity_short_horizon():
    out = stationarity_study(T=1.0)
    assert out["pass"]
    assert out["final_l2_defect"] <= 1e-10


def test_fast_battery_passes():
    report = run_conservation_battery(fast=True)
    assert report["pass"], report
    ratios = report["conservation_order"]["ratios"]
    # quadratic invariant refines at order 3, the others at order 2
    assert all(6.8 <= r <= 9.2 for r in ratios["enstrophy2_defect"]["values"])
    assert all(3.4 <= r <= 4.6 for r in ratios["enstrophy4_defect"]["values"])
    assert all(3.4 <= r <= 4.6 for r in ratios["ke_balance_residual"]["values"])
    gronwall = report["conservation_order"]["gronwall"]
    assert all(np.isfinite(v) for v in gronwall["ratios"].values())


def test_gradient_norm_series_makes_no_transform(monkeypatch):
    # the ||grad theta||_p series reads the samples each record has cached,
    # so the study costs exactly its initial state plus its run
    n, dt, T = 32, 1e-2, 0.05

    def bare_run():
        grid = Grid(n)
        run(_tg_random_state(grid), empty_basis(grid),
            SchemeConfig("stratonovich_heun", dt=dt), T, diag_interval=1)

    study = count_ffts(monkeypatch,
                       lambda: conservation_order_study(n=n, dts=(dt,), T=T))
    assert study == count_ffts(monkeypatch, bare_run)
