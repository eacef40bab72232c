"""Diagnostics records, stopping-time bookkeeping, conservation defects."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sbq import spectral as sp
from sbq.config import initial_condition
from sbq.diagnostics import (
    DiagnosticsRecord,
    RECORD_FIELDS,
    StoppingTimeReport,
    compute_record,
    compute_records,
    conservation_defects,
    lp_grad_theta,
    lp_magnitude,
    offline_blowup_quadrature,
    potential_term,
    update_stopping_report,
)
from sbq.integrator import SchemeConfig, _advance, run
from sbq.noise import build_basis, default_family, empty_basis
from sbq.state import Lanes, SimState
from oracles import fine_values, lp_magnitude_reference, quadrature, quadrature_sobolev_sq


@pytest.fixture(scope="module")
def grid():
    return sp.Grid(64)


def make_record(t, h2=0.0, h3=0.0, gu=0.0, gt=0.0, accum=0.0):
    return DiagnosticsRecord(
        t=t, kinetic_energy=0.0, buoyancy_flux=0.0, enstrophy2=0.0,
        enstrophy4=0.0, h2_omega=h2, h3_theta=h3, linf_grad_u=gu,
        linf_grad_theta=gt, lp_grad_theta=0.0, blowup_accum=accum,
        embedding_ratio=0.0)


class TestStackedRecords:
    """A stack's records are its lanes' own records, field by field: every
    reduction runs row by row."""

    @staticmethod
    def states(g):
        hs = initial_condition({"type": "random_hs", "s_omega": 2.0, "s_theta": 2.0,
                                "seed": 3, "amplitude": 1.0}, g)  # inside the 2/3 ball
        tg = initial_condition({"type": "taylor_green", "amplitude": 1.0}, g)
        tg = SimState(tg.omega, sp.SpectralField.from_physical(  # outside it
            g, 0.5 * np.cos(g.x + 2.0 * g.y)), t=0.0, blowup_accum=0.25)
        return [hs, tg, hs]

    @staticmethod
    def assert_same(got, want):
        for name in RECORD_FIELDS:
            assert getattr(got, name) == getattr(want, name), name

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("n", [32, 64])
    def test_records_equal_each_lane_alone(self, n, p):
        g = sp.Grid(n)
        states = self.states(g)
        lanes = Lanes.of(states)
        assert not lanes.in_ball and Lanes.of(states[:1]).in_ball
        records = compute_records(lanes, p)
        assert len(records) == 3 and records[0] == records[2]
        for record, state in zip(records, states):
            self.assert_same(record, compute_record(replace(state), p))
        # a stack the stepper made: its velocity and samples live in the workspace
        basis = build_basis(default_family(g), g)
        db = np.random.default_rng(4).normal(0.0, np.sqrt(1e-3), (3, len(basis)))
        cfg = SchemeConfig("stratonovich_heun", dt=1e-3, variant="truncated", r=0.3)
        lanes, errors = _advance(lanes, basis, db, 1e-3, cfg, 1e-3)
        assert not any(errors)
        for lane, record in enumerate(compute_records(lanes, p)):
            self.assert_same(record, compute_record(lanes.state(lane), p))


class TestComputeRecord:
    def test_cosine_vorticity_values(self, grid):
        state = SimState(sp.SpectralField.from_physical(grid, np.cos(grid.x)),
                         sp.SpectralField.zero(grid))
        rec = compute_record(state)
        assert rec.kinetic_energy == pytest.approx(np.pi**2, rel=1e-12)
        assert rec.buoyancy_flux == pytest.approx(0.0, abs=1e-12)
        assert rec.enstrophy2 == 0.0
        assert rec.embedding_ratio > 0

    def test_sine_tracer_enstrophy(self, grid):
        state = SimState(sp.SpectralField.zero(grid),
                         sp.SpectralField.from_physical(grid, np.sin(grid.x)))
        rec = compute_record(state)
        assert rec.enstrophy2 == pytest.approx(2 * np.pi**2, rel=1e-12)

    def test_random_state_against_quadrature_oracle(self, grid):
        rng = np.random.default_rng(0)
        omega = sp.random_field(grid, rng, band=6, zero_mean=True)
        theta = sp.random_field(grid, rng, band=6)
        state = SimState(omega, theta, t=0.3, blowup_accum=1.5)
        rec = compute_record(state, p=2.0)
        u = sp.biot_savart(omega)
        factor = 4
        u1, u2 = fine_values(u.u1, factor), fine_values(u.u2, factor)
        th = fine_values(theta, factor)
        assert rec.kinetic_energy == pytest.approx(
            0.5 * quadrature(u1**2 + u2**2), rel=1e-8)
        assert rec.buoyancy_flux == pytest.approx(quadrature(th * u2), rel=1e-8)
        assert rec.enstrophy2 == pytest.approx(quadrature(th**2), rel=1e-8)
        assert rec.enstrophy4 == pytest.approx(quadrature(th**4), rel=1e-8)
        assert rec.h2_omega == pytest.approx(
            math.sqrt(quadrature_sobolev_sq(omega, 2)), rel=1e-8)
        assert rec.h3_theta == pytest.approx(
            math.sqrt(quadrature_sobolev_sq(theta, 3, accuracy=6)), rel=1e-7)
        assert rec.blowup_accum == 1.5
        assert rec.embedding_ratio == pytest.approx(
            (rec.linf_grad_u + rec.linf_grad_theta) / (rec.h2_omega + rec.h3_theta))
        assert rec.is_finite()

    def test_lp_grad_theta_single_mode(self, grid):
        # |grad sin x| = |cos x|; ||cos x||_p^p = 2 pi * int |cos|^p
        theta = sp.SpectralField.from_physical(grid, np.sin(grid.x))
        for p, integral in ((2.0, np.pi), (4.0, 3 * np.pi / 4)):
            expect = (2 * np.pi * integral) ** (1 / p)
            assert lp_grad_theta(theta, p) == pytest.approx(expect, rel=1e-12)
        with pytest.raises(ValueError):
            lp_grad_theta(theta, 1.0)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0])
    def test_lp_magnitude_matches_hypot_form(self, grid, p):
        rng = np.random.default_rng(int(p))
        for scale in (1.0, 1e-3, 1e3):
            gx, gy = scale * rng.standard_normal((2, 64, 64))
            want = lp_magnitude_reference(gx, gy, p)
            assert abs(lp_magnitude(gx, gy, p) - want) <= 1e-15 * want
        zero = np.zeros((64, 64))
        assert lp_magnitude(zero, zero, p) == 0.0

    def test_potential_term_reference(self, grid):
        # theta = sin y: integral of y sin y over [-pi, pi) x [-pi, pi)
        theta = sp.SpectralField.from_physical(grid, np.sin(grid.y))
        state = SimState(sp.SpectralField.zero(grid), theta)
        # int y sin y dy over [-pi, pi] = 2 pi; times 2 pi from the x integral
        assert potential_term(state) == pytest.approx(4 * np.pi**2, rel=1e-3)


class TestStoppingReport:
    def test_constant_series(self):
        report = StoppingTimeReport.new(levels=(1, 10))
        for t in (0.0, 0.5, 1.0):
            update_stopping_report(report, make_record(t, h2=5.0))
        assert report.tau2_crossings == {1: 0.0}
        assert 10 not in report.tau2_crossings

    def test_linear_accumulation_crossing(self):
        report = StoppingTimeReport.new(levels=(4,))
        for i in range(21):
            t = 0.1 * i
            update_stopping_report(report, make_record(t, accum=2.0 * t))
        assert report.tauinf_crossings[4] == pytest.approx(2.0)

    def test_doubling_series_hand_table(self):
        # norm doubles each unit of time: 1, 2, 4, 8, 16 at t = 0..4
        report = StoppingTimeReport.new(levels=(1, 2, 4, 8, 16))
        for i in range(5):
            update_stopping_report(report, make_record(float(i), h2=float(2**i)))
        assert report.tau2_crossings == {1: 0.0, 2: 1.0, 4: 2.0, 8: 3.0, 16: 4.0}

    def test_crossing_times_nondecreasing_in_level(self):
        rng = np.random.default_rng(1)
        report = StoppingTimeReport.new(levels=(1, 2, 4, 8))
        value = 0.5
        for i in range(200):
            value += abs(rng.normal(0, 0.2))
            update_stopping_report(report, make_record(0.01 * i, h2=value))
        times = [report.tau2_crossings[n] for n in (1, 2, 4, 8)
                 if n in report.tau2_crossings]
        assert times == sorted(times)

    def test_out_of_order_rejected(self):
        report = StoppingTimeReport.new()
        update_stopping_report(report, make_record(1.0))
        with pytest.raises(ValueError):
            update_stopping_report(report, make_record(0.5))


class TestConservationDefects:
    def test_constant_series_zero_defects(self):
        records = [DiagnosticsRecord(t=0.1 * i, kinetic_energy=2.0,
                                     buoyancy_flux=0.0, enstrophy2=3.0,
                                     enstrophy4=4.0, h2_omega=1.0, h3_theta=1.0,
                                     linf_grad_u=1.0, linf_grad_theta=1.0,
                                     lp_grad_theta=1.0, blowup_accum=0.0,
                                     embedding_ratio=1.0)
                   for i in range(5)]
        out = conservation_defects(records, 0.1)
        assert out["enstrophy2_defect"] == 0.0
        assert out["enstrophy4_defect"] == 0.0
        assert out["ke_balance_residual"] == 0.0

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            conservation_defects([], 0.1)

    def test_stationary_run_defects_tiny(self, grid):
        # omega = cos x with constant theta is an exact discrete fixed point
        state = SimState(sp.SpectralField.from_physical(grid, np.cos(grid.x)),
                         sp.SpectralField.from_physical(
                             grid, 0.7 * np.ones((grid.n, grid.n))))
        traj = run(state, empty_basis(grid), SchemeConfig("stratonovich_heun", dt=1e-2),
                   T=1.0, diag_interval=1)
        out = conservation_defects(traj.records, 1e-2)
        assert out["enstrophy2_defect"] <= 1e-10
        assert out["enstrophy4_defect"] <= 1e-10


class TestOfflineQuadrature:
    def test_matches_hand_sum(self):
        records = [make_record(0.0, gu=1.0, gt=0.5),
                   make_record(0.1, gu=2.0, gt=0.5, accum=0.15),
                   make_record(0.3, gu=0.0, gt=0.0, accum=0.65)]
        # left endpoint: 0.1 * 1.5 + 0.2 * 2.5 = 0.65
        assert offline_blowup_quadrature(records) == pytest.approx(0.65, abs=1e-15)


class TestRecordSchema:
    def test_field_order(self):
        assert RECORD_FIELDS == (
            "t", "kinetic_energy", "buoyancy_flux", "enstrophy2", "enstrophy4",
            "h2_omega", "h3_theta", "linf_grad_u", "linf_grad_theta",
            "lp_grad_theta", "blowup_accum", "embedding_ratio")
