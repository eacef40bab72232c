"""Conservation battery behind the verify-conservation subcommand, and the
dt-refinement harness of the stochastic criteria."""

import re

import numpy as np
import pytest

from sbq.integrator import SchemeConfig, TimeStepError, run
from sbq.noise import constant_shift_basis, empty_basis
from sbq.spectral import Grid
from sbq.studies import (
    _tg_random_state,
    brownian_paths,
    conservation_order_study,
    refine,
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


def _shift_case():
    grid = Grid(32)
    return _tg_random_state(grid), constant_shift_basis("x", 1.0, grid)


def test_refine_keeps_the_bits_of_the_hand_loop():
    state0, basis = _shift_case()
    T, fine = 0.25, 2.0**-7
    cfgs = [SchemeConfig("stratonovich_heun", dt=dt) for dt in (2 * fine, fine)]
    paths = brownian_paths([(7, j) for j in range(3)], fine, T, 1)
    for fac, cfg, row in zip((2, 1), cfgs, refine(state0, basis, cfgs, T, paths)):
        for path, final in zip(paths, row):
            summed = np.array([path[i:i + fac].sum(axis=0) for i in range(0, len(path), fac)])
            alone = run(state0, basis, cfg, T, increments=summed).final_state
            assert np.array_equal(final.omega.half, alone.omega.half)
            assert np.array_equal(final.theta.half, alone.theta.half)


@pytest.mark.parametrize("factor", [1.5, 0.5, 3.0])
def test_refine_refuses_a_dt_that_does_not_split_the_paths(factor):
    state0, basis = _shift_case()
    fine = 2.0**-7
    dt = factor * fine
    with pytest.raises(ValueError, match=f"{re.escape(str(dt))}.*{re.escape(str(fine))}"):
        refine(state0, basis, [SchemeConfig("stratonovich_heun", dt=dt)], 0.25,
               brownian_paths([1, 2], fine, 0.25, 1))


def test_refine_refuses_paths_of_unequal_length():
    state0, basis = _shift_case()
    cfgs = [SchemeConfig("stratonovich_heun", dt=2.0**-7)]
    with pytest.raises(ValueError, match=r"\[16, 32\]"):
        refine(state0, basis, cfgs, 0.25, [np.zeros((32, 1)), np.zeros((16, 1))])


def test_refine_raises_a_lane_stopped_by_the_cfl_guard():
    state0, basis = _shift_case()
    cfgs = [SchemeConfig("stratonovich_heun", dt=2.0**-7, cfl=1e-6)]
    with pytest.raises(TimeStepError, match="exceeds CFL bound"):
        refine(state0, basis, cfgs, 0.25, brownian_paths([1], 2.0**-7, 0.25, 1))

