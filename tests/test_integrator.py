"""Steppers: scheme semantics, variants, conservation structure, blow-up
bookkeeping, and the run loop."""

import os
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from sbq import integrator
from sbq import spectral as sp
from sbq.config import initial_condition, random_hs_field
from sbq.diagnostics import compute_record
from sbq.integrator import (
    BlowUpSuspected,
    SchemeConfig,
    TimeStepError,
    Trajectory,
    _advance,
    _certified,
    _lane_steps,
    _run_lanes,
    eta_cutoff,
    run,
    step,
)
from sbq.noise import (
    BrownianIncrements,
    NoiseBasis,
    build_basis,
    constant_shift_basis,
    default_family,
    sample_increments,
)
from sbq.operators import lie_derivative
from sbq.state import Lanes, SimState
from oracles import (
    count_ffts,
    fd_derivative,
    fft_planes,
    full_layout_samples,
    step_full_layout_reference,
    step_two_transport_reference,
)


@pytest.fixture(scope="module")
def grid():
    return sp.Grid(64)


def empty_basis(grid):
    return NoiseBasis((), 0.0, grid, 0.0)


def zero_increments(dt):
    return BrownianIncrements(np.zeros(0), dt)


def stationary_state(grid):
    return SimState(sp.SpectralField.from_physical(grid, np.cos(grid.x)),
                    sp.SpectralField.zero(grid))


def two_cutoff_state(grid, rng, band):
    # ||grad theta||_inf = 1.3 ||grad u||_inf: with r = 0.9 ||grad u||_inf
    # both cutoffs lie strictly inside (0, 1) and differ
    omega = sp.random_field(grid, rng, band=band, zero_mean=True)
    theta = sp.random_field(grid, rng, band=band)
    gu, gth = SimState(omega, theta).grad_sups
    return SimState(omega, (1.3 * gu / gth) * theta)


def ito_increment(state, basis, drift_enabled=True):
    # one Ito-Euler step with dB = 0 at dt = 1: the increment is the drift
    # (plus the Ito correction when the basis is not empty)
    new = step(state, basis, BrownianIncrements(np.zeros(len(basis)), 1.0),
               SchemeConfig("ito_euler", dt=1.0, drift_enabled=drift_enabled))
    return new.omega - state.omega, new.theta - state.theta


class TestDrift:
    def test_stationary_euler_state(self, grid):
        domega, dtheta = ito_increment(stationary_state(grid), empty_basis(grid))
        assert sp.l2_norm(domega) == 0.0
        assert sp.l2_norm(dtheta) == 0.0

    def test_pure_buoyancy(self, grid):
        state = SimState(sp.SpectralField.zero(grid),
                         sp.SpectralField.from_physical(grid, np.cos(grid.x)))
        domega, dtheta = ito_increment(state, empty_basis(grid))
        assert np.allclose(domega.values(), -np.sin(grid.x), atol=1e-12)
        assert sp.l2_norm(dtheta) < 1e-13

    def test_matches_finite_difference_oracle(self, grid):
        # independent physical-space evaluation of u . grad(omega or theta)
        # on a 4x refined grid with 6th-order stencils
        rng = np.random.default_rng(0)
        omega = sp.random_field(grid, rng, band=8, zero_mean=True)
        theta = sp.random_field(grid, rng, band=8)
        state = SimState(omega, theta)
        domega, dtheta = ito_increment(state, empty_basis(grid))
        u = sp.biot_savart(omega)
        factor, fine_n = 4, 256
        h = 2 * np.pi / fine_n
        u1 = sp.resample(u.u1, fine_n).values()
        u2 = sp.resample(u.u2, fine_n).values()
        for f, ours, extra in ((omega, domega, sp.derivative(theta, "x")),
                               (theta, dtheta, None)):
            fine = sp.resample(f, fine_n).values()
            adv = (u1 * fd_derivative(fine, 0, h, 1)
                   + u2 * fd_derivative(fine, 1, h, 1))
            oracle = -adv[::factor, ::factor]
            if extra is not None:
                oracle = oracle + extra.values()
            scale = max(np.max(np.abs(oracle)), 1e-30)
            assert np.max(np.abs(ours.values() - oracle)) <= 1e-6 * scale


class TestItoCorrection:
    def test_single_constant_mode(self, grid):
        basis = constant_shift_basis("x", 1.0, grid)
        state = SimState(sp.SpectralField.from_physical(grid, np.sin(grid.x)),
                         sp.SpectralField.zero(grid))
        comega, ctheta = ito_increment(state, basis, drift_enabled=False)
        assert np.allclose(comega.values(), -0.5 * np.sin(grid.x), atol=1e-12)
        assert sp.l2_norm(ctheta) == 0.0

    def test_empty_basis(self, grid):
        c = ito_increment(stationary_state(grid), empty_basis(grid), drift_enabled=False)
        assert sp.l2_norm(c[0]) == 0.0 and sp.l2_norm(c[1]) == 0.0

    def test_linearity_over_modes(self, grid):
        from sbq.operators import lie_second
        rng = np.random.default_rng(1)
        basis = build_basis([((1, 0), "sine", 0.3), ((0, 1), "cosine", 0.2)], grid)
        omega = sp.random_field(grid, rng, band=10, zero_mean=True)
        state = SimState(omega, sp.SpectralField.zero(grid))
        comega, _ = ito_increment(state, basis, drift_enabled=False)
        term_sum = 0.5 * (lie_second(basis.fields[0], omega)
                          + lie_second(basis.fields[1], omega))
        assert np.max(np.abs(comega.coeffs - term_sum.coeffs)) <= \
            1e-12 * max(1.0, np.max(np.abs(term_sum.coeffs)))

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("family", ["default", "constant_shift"])
    def test_full_band_matches_composed_lie_second(self, n, family):
        # fields filling the dealias ball, many modes: the physical-space sum
        # agrees with sum_i 1/2 lie_second(xi_i, f) to round-off
        from sbq.operators import lie_second
        g = sp.Grid(n)
        rng = np.random.default_rng(n)
        basis = (build_basis(default_family(g), g) if family == "default"
                 else constant_shift_basis("x", 1.0, g))
        omega = sp.random_field(g, rng, band=n // 3, zero_mean=True)
        theta = sp.random_field(g, rng, band=n // 3)
        increments = ito_increment(SimState(omega, theta), basis, drift_enabled=False)
        for c, f in zip(increments, (omega, theta)):
            ref = sp.SpectralField.zero(g)
            for xi in basis.fields:
                ref = ref + 0.5 * lie_second(xi, f)
            assert np.max(np.abs(c.coeffs - ref.coeffs)) <= \
                1e-13 * np.max(np.abs(ref.coeffs))
            assert sp.inner(c, f) <= 0.0
            assert c.hermitian_defect() <= 1e-14

    def test_transforms_per_mode(self, grid, monkeypatch):
        # 2-D FFT calls made by one Ito-Euler step grow by at most 6 per mode
        rng = np.random.default_rng(4)
        state = SimState(sp.random_field(grid, rng, band=10, zero_mean=True),
                         sp.random_field(grid, rng, band=10))
        calls = []
        for m in (3, 6):
            basis = build_basis(default_family(grid, max_modes=m), grid)
            increments = sample_increments(rng, 1e-3, m)
            calls.append(count_ffts(monkeypatch, lambda: step(
                state, basis, increments, SchemeConfig("ito_euler", dt=1e-3))))
        assert calls[1] - calls[0] <= 18

    @pytest.mark.parametrize("n", [64, 128])
    def test_default_family_interior_is_eddy_diffusivity(self, n):
        # cosine/sine pairs cancel the +-2k diagonals: one multiplier, equal
        # to -1/2 a |m|^2 away from the outer 2 k_max shell, where
        # sum_i xi_i (x) xi_i = a I in physical space
        g = sp.Grid(n)
        basis = build_basis(default_family(g), g)
        d0, shifted = basis.ito_diagonals
        assert shifted == ()
        x1 = np.array([xi.u1.values() for xi in basis.fields])
        x2 = np.array([xi.u2.values() for xi in basis.fields])
        a = np.mean(np.sum(x1 * x1, axis=0))
        assert np.max(np.abs(np.sum(x1 * x1, axis=0) - a)) <= 1e-13 * a
        assert np.max(np.abs(np.sum(x2 * x2, axis=0) - a)) <= 1e-13 * a
        assert np.max(np.abs(np.sum(x1 * x2, axis=0))) <= 1e-13 * a
        assert a == pytest.approx(0.0107029, rel=1e-5)
        interior = (np.maximum(np.abs(g.k1), np.abs(g.k2)) <= n / 3 - 2 * 4) & (g.ksq > 0)
        measured = -2.0 * d0[interior] / g.ksq[interior]
        assert np.max(np.abs(measured - a)) <= 1e-14 * a
        assert np.all(d0[~g.dealias_keep] == 0.0)

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("modes", ["max_modes_3", "single_sine", "max_modes_5"])
    def test_unpaired_bases_match_composed_lie_second(self, n, modes):
        # an unpaired mode keeps its +-2k diagonals; full-band fields
        from sbq.operators import lie_second
        g = sp.Grid(n)
        rng = np.random.default_rng(n + 1)
        spec = {"max_modes_3": default_family(g, max_modes=3),
                "single_sine": [((2, -1), "sine", 0.3)],
                "max_modes_5": default_family(g, max_modes=5)}[modes]
        basis = build_basis(spec, g)
        assert len(basis.ito_diagonals[1]) == 2
        omega = sp.random_field(g, rng, band=n // 3, zero_mean=True)
        theta = sp.random_field(g, rng, band=n // 3)
        increments = ito_increment(SimState(omega, theta), basis, drift_enabled=False)
        for c, f in zip(increments, (omega, theta)):
            ref = sp.SpectralField.zero(g)
            for xi in basis.fields:
                ref = ref + 0.5 * lie_second(xi, f)
            assert np.max(np.abs(c.coeffs - ref.coeffs)) <= \
                1e-13 * np.max(np.abs(ref.coeffs))

    def test_transforms_independent_of_mode_count(self, grid, monkeypatch):
        # the correction makes no transform: 3 and 48 modes cost the same
        rng = np.random.default_rng(5)
        state = SimState(sp.random_field(grid, rng, band=10, zero_mean=True),
                         sp.random_field(grid, rng, band=10))
        calls = []
        for m in (3, 48):
            basis = build_basis(default_family(grid, max_modes=m), grid)
            assert len(basis) == m
            increments = sample_increments(rng, 1e-3, m)
            # a fresh copy each time: a stepped-from state keeps its gradients
            calls.append(count_ffts(monkeypatch, lambda: step(
                replace(state), basis, increments, SchemeConfig("ito_euler", dt=1e-3))))
        assert calls[0] == calls[1]
        assert calls[1] <= 32


class TestItoEuler:
    def test_stationary_state_unchanged(self, grid):
        cfg = SchemeConfig("ito_euler", dt=0.02)
        state = stationary_state(grid)
        new = step(state, empty_basis(grid), zero_increments(0.02), cfg)
        assert sp.l2_norm(new.omega - state.omega) <= 1e-12
        assert new.t == pytest.approx(0.02)

    def test_single_buoyancy_step(self, grid):
        cfg = SchemeConfig("ito_euler", dt=0.05)
        theta0 = sp.SpectralField.from_physical(grid, np.cos(grid.x))
        state = SimState(sp.SpectralField.zero(grid), theta0)
        new = step(state, empty_basis(grid), zero_increments(0.05), cfg)
        assert np.allclose(new.omega.values(), -0.05 * np.sin(grid.x), atol=1e-12)
        assert np.allclose(new.theta.values(), theta0.values(), atol=1e-13)

    def test_zero_noise_is_forward_euler(self, grid):
        rng = np.random.default_rng(2)
        omega = sp.random_field(grid, rng, band=8, zero_mean=True)
        theta = sp.random_field(grid, rng, band=8)
        state = SimState(omega, theta)
        cfg = SchemeConfig("ito_euler", dt=0.01)
        new = step(state, empty_basis(grid), zero_increments(0.01), cfg)
        u = sp.biot_savart(omega)
        expect_omega = omega + 0.01 * (-lie_derivative(u, omega)
                                       + sp.derivative(theta, "x"))
        expect_theta = theta + 0.01 * (-lie_derivative(u, theta))
        assert np.array_equal(new.omega.coeffs, expect_omega.coeffs)
        assert np.array_equal(new.theta.coeffs, expect_theta.coeffs)

    def test_noise_transport_matches_lie_derivative(self, grid):
        # the stage forms w = sum_i dB_i xi_i from the modes' coefficients;
        # its transport agrees with the public operator on the summed field
        rng = np.random.default_rng(12)
        omega = sp.random_field(grid, rng, band=20, zero_mean=True)
        theta = sp.random_field(grid, rng, band=20)
        state = SimState(omega, theta)
        basis = build_basis(default_family(grid), grid)
        db = sample_increments(rng, 1e-3, len(basis))
        new = step(state, basis, db, SchemeConfig("ito_euler", dt=1e-3, drift_enabled=False))
        w = sp.VelocityField(*(sp.SpectralField.from_coeffs(grid, sum(
            b * getattr(xi, c).coeffs for b, xi in zip(db.values, basis.fields)))
            for c in ("u1", "u2")))
        correction = ito_increment(state, basis, drift_enabled=False)
        for got, f, c in zip((new.omega, new.theta), (omega, theta), correction):
            transport = lie_derivative(w, f)
            expect = f + 1e-3 * c - transport
            assert np.max(np.abs(got.coeffs - expect.coeffs)) <= \
                1e-14 * np.max(np.abs(transport.coeffs))

    def test_dt_mismatch_rejected(self, grid):
        cfg = SchemeConfig("ito_euler", dt=0.01)
        with pytest.raises(ValueError):
            step(stationary_state(grid), empty_basis(grid),
                 zero_increments(0.02), cfg)

    def test_increment_count_mismatch_rejected(self, grid):
        # by step and by the lane loop alike, before anything is computed
        basis = build_basis(default_family(grid, max_modes=3), grid)
        cfg = SchemeConfig("ito_euler", dt=0.01)
        for count in (0, 2, 4):
            with pytest.raises(ValueError, match="one Brownian increment per noise mode"):
                step(stationary_state(grid), basis, BrownianIncrements(np.zeros(count), 0.01),
                     cfg)
            with pytest.raises(ValueError, match="one Brownian increment per noise mode"):
                run(stationary_state(grid), basis, cfg, 0.02, increments=np.zeros((2, count)))


class TestStratonovichHeun:
    def test_shift_invariant_tracer(self, grid):
        # xi = (1, 0) and theta = cos y: transport in x leaves theta fixed
        basis = constant_shift_basis("x", 1.0, grid)
        theta0 = sp.SpectralField.from_physical(grid, np.cos(grid.y))
        state = SimState(sp.SpectralField.zero(grid), theta0)
        cfg = SchemeConfig("stratonovich_heun", dt=0.01)
        rng = np.random.default_rng(3)
        traj = run(state, basis, cfg, T=1.0, rng=rng, diag_interval=10**9)
        assert np.max(np.abs(traj.final_state.theta.values() - np.cos(grid.y))) <= 1e-12
        assert sp.l2_norm(traj.final_state.omega) <= 1e-12

    def test_pure_transport_one_step(self, grid):
        # drift disabled: theta+ ~ cos(x - dB) with error <= |dB|^3 / 6 + eps
        basis = constant_shift_basis("x", 1.0, grid)
        theta0 = sp.SpectralField.from_physical(grid, np.cos(grid.x))
        state = SimState(sp.SpectralField.zero(grid), theta0)
        cfg = SchemeConfig("stratonovich_heun", dt=0.01, drift_enabled=False)
        db = sample_increments(np.random.default_rng(4), 0.01, 1)
        new = step(state, basis, db, cfg)
        shift = db.values[0]
        err = np.max(np.abs(new.theta.values() - np.cos(grid.x - shift)))
        assert err <= abs(shift) ** 3 / 6 + 1e-12

    @pytest.mark.parametrize("db", [0.5, -0.2, 0.1, 3e-2, -1e-3])
    def test_frozen_transport_norm_defect_exact(self, grid, db):
        # frozen skew-adjoint A = -d/dx: theta1 = theta0 + dB A theta0
        # + (dB^2/2) A^2 theta0, so ||theta1||^2 - ||theta0||^2
        # = (dB^4/4) ||A^2 theta0||^2 exactly (all cross terms cancel)
        basis = constant_shift_basis("x", 1.0, grid)
        theta0 = sp.random_field(grid, np.random.default_rng(7), band=8, decay=1.0)
        state = SimState(sp.SpectralField.zero(grid), theta0)
        cfg = SchemeConfig("stratonovich_heun", dt=0.01, drift_enabled=False)
        new = step(state, basis, BrownianIncrements(np.array([db]), 0.01), cfg)
        norm0 = sp.inner(theta0, theta0)
        defect = sp.inner(new.theta, new.theta) - norm0
        expected = db**4 / 4 * sp.l2_norm(sp.derivative(theta0, "x", 2)) ** 2
        assert abs(defect - expected) <= 1e-12 * norm0

    def test_zero_noise_norm_defect_order_four_per_step(self, grid):
        # criterion-6 initial state: the one-step theta^2 defect
        # (dt^2/4) ||(A0 - A1) theta||^2 with A0 - A1 = O(dt) is O(dt^4),
        # so each dt halving shrinks it by ~16
        omega = sp.SpectralField.from_physical(
            grid, 2.0 * np.sin(grid.x) * np.sin(grid.y))
        theta = random_hs_field(grid, 3.0, np.random.default_rng(42), 1.0)
        state = SimState(omega, theta)
        norm0 = sp.inner(theta, theta)
        defects = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            new = step(state, empty_basis(grid), zero_increments(dt),
                       SchemeConfig("stratonovich_heun", dt=dt))
            defects.append(abs(sp.inner(new.theta, new.theta) - norm0))
        ratios = [a / b for a, b in zip(defects, defects[1:])]
        assert all(14.4 <= r <= 17.6 for r in ratios), ratios

    def test_zero_noise_preserves_stationary_state(self, grid):
        cfg = SchemeConfig("stratonovich_heun", dt=0.01)
        state = stationary_state(grid)
        traj = run(state, empty_basis(grid), cfg, T=0.5, diag_interval=10**9)
        assert sp.l2_norm(traj.final_state.omega - state.omega) <= 1e-12


class TestTruncated:
    def _state_and_basis(self, grid, seed=5):
        rng = np.random.default_rng(seed)
        omega = sp.random_field(grid, rng, band=8, zero_mean=True, amplitude=2.0)
        theta = sp.random_field(grid, rng, band=8, amplitude=2.0)
        basis = build_basis([((1, 0), "sine", 0.1)], grid)
        return SimState(omega, theta), basis

    def test_below_threshold_bit_identical(self, grid):
        state, basis = self._state_and_basis(grid)
        big_r = 10.0 * sum(state.grad_sups) + 10.0
        db = sample_increments(np.random.default_rng(6), 0.01, 1)
        for scheme in ("ito_euler", "stratonovich_heun"):
            plain = step(state, basis, db, SchemeConfig(scheme, dt=0.01))
            trunc = step(state, basis, db,
                         SchemeConfig(scheme, dt=0.01, variant="truncated", r=big_r))
            assert np.array_equal(plain.omega.coeffs, trunc.omega.coeffs)
            assert np.array_equal(plain.theta.coeffs, trunc.theta.coeffs)

    def test_above_threshold_zero_advection(self, grid):
        state, basis = self._state_and_basis(grid)
        tiny_r = min(state.grad_sups) / 2.5
        assert tiny_r > 0  # both sup norms >= 2r
        db = sample_increments(np.random.default_rng(7), 0.01, 1)
        trunc = step(state, basis, db,
                     SchemeConfig("ito_euler", dt=0.01, variant="truncated", r=tiny_r))
        hooked = step(state, basis, db,
                      SchemeConfig("ito_euler", dt=0.01, drift_enabled=False))
        # advection off leaves only buoyancy (still active in truncated form),
        # noise and correction: compare against drift-disabled step plus the
        # buoyancy term applied manually
        buoy = sp.derivative(state.theta, "x")
        manual = hooked.omega + 0.01 * buoy
        assert np.max(np.abs(trunc.omega.coeffs - manual.coeffs)) <= 1e-12 * \
            max(1.0, np.max(np.abs(manual.coeffs)))
        assert np.array_equal(trunc.theta.coeffs, hooked.theta.coeffs)

    def test_midband_scaling(self, grid):
        state, basis = self._state_and_basis(grid)
        u = sp.biot_savart(state.omega)
        # rescale theta so both sup norms coincide, then r puts them mid-band
        su, sth0 = state.grad_sups
        theta = state.theta * (su / sth0)
        state = SimState(state.omega, theta)
        sth = state.grad_sups[1]
        r = 0.8 * min(su, sth)
        assert r < su < 2 * r and r < sth < 2 * r
        eta_u, eta_th = eta_cutoff(su, r), eta_cutoff(sth, r)
        assert 0.0 < eta_u < 1.0 and 0.0 < eta_th < 1.0
        db = zero_increments(0.01)
        trunc = step(state, empty_basis(grid), db,
                     SchemeConfig("ito_euler", dt=0.01, variant="truncated", r=r))
        # factored oracle: eta-scaled advection plus full buoyancy
        from sbq.operators import lie_derivative
        adv_o = lie_derivative(u, state.omega)
        adv_t = lie_derivative(u, state.theta)
        omega_expect = state.omega + 0.01 * (-eta_u * adv_o
                                             + sp.derivative(state.theta, "x"))
        theta_expect = state.theta + 0.01 * (-eta_th * adv_t)
        assert np.max(np.abs(trunc.omega.coeffs - omega_expect.coeffs)) <= 1e-12 * \
            np.max(np.abs(omega_expect.coeffs))
        assert np.max(np.abs(trunc.theta.coeffs - theta_expect.coeffs)) <= 1e-12 * \
            np.max(np.abs(theta_expect.coeffs))

    def test_eta_cutoff_shape(self):
        assert eta_cutoff(0.0, 1.0) == 1.0
        assert eta_cutoff(1.0, 1.0) == 1.0
        assert eta_cutoff(2.0, 1.0) == 0.0
        assert eta_cutoff(3.0, 1.0) == 0.0
        assert eta_cutoff(1.5, 1.0) == pytest.approx(0.5)
        xs = np.linspace(0.9, 2.1, 200)
        vals = [eta_cutoff(x, 1.0) for x in xs]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))  # non-increasing


class TestHyper:
    def test_nu_zero_reduces_to_truncated(self, grid):
        rng = np.random.default_rng(8)
        omega = sp.random_field(grid, rng, band=8, zero_mean=True)
        theta = sp.random_field(grid, rng, band=8)
        state = SimState(omega, theta)
        basis = build_basis([((0, 1), "sine", 0.1)], grid)
        db = sample_increments(np.random.default_rng(9), 0.01, 1)
        trunc = step(state, basis, db,
                     SchemeConfig("stratonovich_heun", dt=0.01,
                                  variant="truncated", r=5.0))
        hyper = step(state, basis, db,
                     SchemeConfig("stratonovich_heun", dt=0.01,
                                  variant="hyper", r=5.0, nu=0.0))
        assert np.array_equal(trunc.omega.coeffs, hyper.omega.coeffs)
        assert np.array_equal(trunc.theta.coeffs, hyper.theta.coeffs)

    def test_cached_decay_factors_bit_identical(self, grid):
        # the factors are built once per (grid, nu, dt) with the per-step
        # expression: the hyper step is the truncated step times them
        from sbq.integrator import _hyper_decay
        rng = np.random.default_rng(13)
        state = SimState(sp.random_field(grid, rng, band=20, zero_mean=True),
                         sp.random_field(grid, rng, band=20))
        nu, dt = 1e-9, 0.01
        trunc = step(state, empty_basis(grid), zero_increments(dt),
                     SchemeConfig("stratonovich_heun", dt=dt, variant="truncated", r=5.0))
        for _ in range(2):
            hyper = step(state, empty_basis(grid), zero_increments(dt),
                         SchemeConfig("stratonovich_heun", dt=dt, variant="hyper",
                                      r=5.0, nu=nu))
            assert np.array_equal(hyper.omega.coeffs,
                                  trunc.omega.coeffs * np.exp(-nu * grid.ksq**5 * dt))
            assert np.array_equal(hyper.theta.coeffs,
                                  trunc.theta.coeffs * np.exp(-nu * grid.ksq**7 * dt))
        assert _hyper_decay(grid, nu, dt) is _hyper_decay(sp.Grid(64), nu, dt)

    def test_pure_dissipation_decay(self, grid):
        nu, dt = 1e-4, 0.01
        state = SimState(sp.SpectralField.from_physical(grid, np.cos(2 * grid.x)),
                         sp.SpectralField.from_physical(grid, np.cos(2 * grid.y)))
        cfg = SchemeConfig("stratonovich_heun", dt=dt, variant="hyper",
                           r=1e9, nu=nu, drift_enabled=False)
        new = step(state, empty_basis(grid), zero_increments(dt), cfg)
        expect_omega = np.cos(2 * grid.x) * np.exp(-nu * 2.0**10 * dt)
        expect_theta = np.cos(2 * grid.y) * np.exp(-nu * 2.0**14 * dt)
        assert np.max(np.abs(new.omega.values() - expect_omega)) <= 1e-12
        assert np.max(np.abs(new.theta.values() - expect_theta)) <= 1e-12

    def test_dissipative_substep_contracts_l2(self, grid):
        rng = np.random.default_rng(10)
        cfg = SchemeConfig("stratonovich_heun", dt=0.01, variant="hyper",
                           r=1e9, nu=1e-5, drift_enabled=False)
        for _ in range(10):
            omega = sp.random_field(grid, rng, band=20, zero_mean=True)
            theta = sp.random_field(grid, rng, band=20)
            state = SimState(omega, theta)
            new = step(state, empty_basis(grid), zero_increments(0.01), cfg)
            assert sp.l2_norm(new.omega) <= sp.l2_norm(omega) + 1e-14
            assert sp.l2_norm(new.theta) <= sp.l2_norm(theta) + 1e-14


class TestBlowUpBookkeeping:
    def test_accumulates_left_endpoint(self, grid):
        state = stationary_state(grid)
        integrand = sum(SimState(state.omega, state.theta).grad_sups)
        cfg = SchemeConfig("stratonovich_heun", dt=0.25)
        new = step(state, empty_basis(grid), zero_increments(0.25), cfg)
        assert new.blowup_accum == pytest.approx(0.25 * integrand, abs=1e-15)

    def test_nan_aborts_with_last_state(self, grid):
        omega = sp.SpectralField.from_physical(grid, np.cos(grid.x))
        state = SimState(omega, sp.SpectralField.zero(grid))
        bad = BrownianIncrements(np.array([np.nan]), 0.01)
        basis = constant_shift_basis("x", 1.0, grid)
        cfg = SchemeConfig("ito_euler", dt=0.01)
        with pytest.raises(BlowUpSuspected) as info:
            step(state, basis, bad, cfg)
        assert info.value.last_state is state

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_overflowing_norms_trip_the_magnitude_guard(self, seed):
        # a step takes these fields from below the guard to past 1e154, where
        # the half-weighted norm sums read inf - inf = NaN: the magnitude
        # guard must count NaN as beyond it, not leave it to the mean guard
        grid = sp.Grid(32)
        rng = np.random.default_rng(seed)
        state = SimState(sp.random_field(grid, rng, band=8, amplitude=30.0, zero_mean=True),
                         sp.random_field(grid, rng, band=8, amplitude=30.0))
        cfg = SchemeConfig("stratonovich_heun", dt=0.5)
        traj = run(state, empty_basis(grid), cfg, T=50.0)
        assert traj.blowup_suspected and traj.abort_step is not None
        with pytest.raises(BlowUpSuspected, match="overflow guard"):
            step(traj.final_state, empty_basis(grid), zero_increments(0.5), cfg)

    def test_cfl_guard_triggers(self, grid):
        state = stationary_state(grid)
        cfg = SchemeConfig("stratonovich_heun", dt=0.5, cfl=0.5)
        with pytest.raises(TimeStepError):
            step(state, empty_basis(grid), zero_increments(0.5), cfg)

    def test_mean_modes_conserved_along_noisy_run(self, grid):
        rng = np.random.default_rng(11)
        omega = sp.random_field(grid, rng, band=8, zero_mean=True)
        theta = sp.random_field(grid, rng, band=8) + sp.SpectralField.from_physical(
            grid, 0.7 * np.ones((grid.n, grid.n)))
        basis = build_basis([((1, 0), "sine", 0.1), ((0, 1), "cosine", 0.1)], grid)
        state = SimState(omega, theta)
        theta_mean0 = state.theta.mean()
        cfg = SchemeConfig("stratonovich_heun", dt=0.01)
        traj = run(state, basis, cfg, T=0.5, rng=rng, diag_interval=10**9)
        assert abs(traj.final_state.omega.mean()) <= 1e-13
        assert traj.final_state.theta.mean() == pytest.approx(theta_mean0, abs=1e-13)


class TestSharedGradients:
    def _state(self, grid, seed=14):
        rng = np.random.default_rng(seed)
        return SimState(sp.random_field(grid, rng, band=10, zero_mean=True),
                        sp.random_field(grid, rng, band=10))

    def test_record_then_step_adds_only_theta_samples(self, grid, monkeypatch):
        # the record fills the state's gradient cache and the step reads it:
        # taking the record first costs at most theta's own samples
        cfg = SchemeConfig("stratonovich_heun", dt=0.01)
        state, fresh = self._state(grid), self._state(grid)

        def record_then_step():
            compute_record(state)
            step(state, empty_basis(grid), zero_increments(0.01), cfg)

        alone = count_ffts(monkeypatch, lambda: step(
            fresh, empty_basis(grid), zero_increments(0.01), cfg))
        both = count_ffts(monkeypatch, record_then_step)
        assert both - alone <= 1

    def test_grad_sups_match_derivative_samples(self, grid, monkeypatch):
        state = self._state(grid)
        u = sp.biot_savart(state.omega)
        gu = max(np.max(np.abs(sp.derivative(c, axis).values()))
                 for c in (u.u1, u.u2) for axis in ("x", "y"))
        tx, ty = (sp.derivative(state.theta, axis).values() for axis in ("x", "y"))
        gth = max(np.max(np.abs(tx)), np.max(np.abs(ty)))
        assert state.grad_sups == (gu, gth)
        assert np.array_equal(state.grad_theta[0], tx)
        assert np.array_equal(state.grad_theta[1], ty)
        assert np.array_equal(state.velocity.u1.coeffs, u.u1.coeffs)
        assert np.array_equal(state.velocity.u2.coeffs, u.u2.coeffs)
        assert count_ffts(monkeypatch, lambda: (
            state.grad_sups, state.grad_theta, state.velocity)) == 0
        # replace builds a state with its own cache
        doubled = replace(state, theta=2.0 * state.theta)
        assert doubled.grad_sups == (gu, 2.0 * gth)


class TestTransformCounts:
    @pytest.mark.parametrize("m", [0, 3, 48])
    @pytest.mark.parametrize("variant", ["plain", "truncated", "hyper"])
    def test_step_transform_budget(self, grid, monkeypatch, m, variant):
        # one batched inverse for the start state's samples, then per stage
        # one batched inverse and one batched forward
        rng = np.random.default_rng(14)
        state = SimState(sp.random_field(grid, rng, band=10, zero_mean=True),
                         sp.random_field(grid, rng, band=10))
        basis = build_basis(default_family(grid, max_modes=m), grid) if m \
            else empty_basis(grid)
        params = {"plain": {}, "truncated": {"r": 0.5},
                  "hyper": {"r": 0.5, "nu": 1e-12}}[variant]
        for scheme, budget in (("stratonovich_heun", 6), ("ito_euler", 3)):
            cfg = SchemeConfig(scheme, dt=1e-3, variant=variant, **params)
            increments = sample_increments(rng, 1e-3, m)
            calls = count_ffts(monkeypatch, lambda: step(
                replace(state), basis, increments, cfg))
            assert calls <= budget


    @pytest.mark.parametrize("m", [0, 3, 48])
    def test_exact_transform_counts(self, grid, monkeypatch, m):
        # from a fresh state: the state's samples, then one inverse and one
        # forward per stage
        rng = np.random.default_rng(16)
        state = SimState(sp.random_field(grid, rng, band=10, zero_mean=True),
                         sp.random_field(grid, rng, band=10))
        basis = build_basis(default_family(grid, max_modes=m), grid) if m \
            else empty_basis(grid)
        for scheme, calls in (("stratonovich_heun", 5), ("ito_euler", 3)):
            increments = sample_increments(rng, 1e-3, m)
            assert count_ffts(monkeypatch, lambda: step(
                replace(state), basis, increments, SchemeConfig(scheme, dt=1e-3))) == calls

    @pytest.mark.parametrize("variant", ["plain", "truncated"])
    def test_heun_plane_budget(self, grid, monkeypatch, variant):
        # a stage inverts grad omega, grad theta and one velocity pair per
        # distinct cutoff, and forwards one transport per field; the state's
        # own gradient samples are one more inverse of 6 planes.  Inside the
        # 2/3 ball a stage reads grad theta from the samples of its state
        # when they were taken: the start state's always, the predictor's
        # when the variant truncates
        rng = np.random.default_rng(15)
        state = two_cutoff_state(grid, rng, band=10)
        gu, gth = state.grad_sups
        params = {"plain": {}, "truncated": {"r": 0.9 * gu}}[variant]
        cfg = SchemeConfig("stratonovich_heun", dt=1e-3, variant=variant, **params)
        basis = build_basis(default_family(grid), grid)
        planes = fft_planes(monkeypatch, lambda: step(
            replace(state), basis, sample_increments(rng, 1e-3, len(basis)), cfg))
        assert planes["rfft2"] == [2, 2]
        if variant == "plain":
            assert planes["irfft2"] == [6, 4, 6]
        else:
            # the predictor's cutoffs differ too: its sups are read as well
            assert planes["irfft2"] == [6, 6, 6, 6]

    @pytest.mark.parametrize("variant", ["plain", "truncated"])
    def test_ito_plane_budget(self, grid, monkeypatch, variant):
        # from a fresh state inside the 2/3 ball: its samples, then one stage
        # that inverts grad omega and the velocities only
        rng = np.random.default_rng(17)
        state = two_cutoff_state(grid, rng, band=10)
        params = {"plain": {}, "truncated": {"r": 0.9 * state.grad_sups[0]}}[variant]
        cfg = SchemeConfig("ito_euler", dt=1e-3, variant=variant, **params)
        basis = build_basis(default_family(grid), grid)
        planes = fft_planes(monkeypatch, lambda: step(
            replace(state), basis, sample_increments(rng, 1e-3, len(basis)), cfg))
        assert planes == {"irfft2": [6, 4] if variant == "plain" else [6, 6], "rfft2": [2]}

    @pytest.mark.parametrize("m", [3, 48])
    @pytest.mark.parametrize("scheme", ["stratonovich_heun", "ito_euler"])
    def test_steps_stay_inside_the_ball(self, scheme, m):
        # every rate is zero outside the ball (the Ito diagonals of an
        # unpaired family too), so the saving holds for the whole run
        g = sp.Grid(30)
        rng = np.random.default_rng(18)
        state = SimState(sp.random_field(g, rng, band=10, zero_mean=True),
                         sp.random_field(g, rng, band=10))
        basis = build_basis(default_family(g, max_modes=m), g)
        cfg = SchemeConfig(scheme, dt=1e-3, variant="hyper", r=0.5, nu=1e-9)
        for _ in range(4):
            assert Lanes.of([state]).in_ball
            state = step(state, basis, sample_increments(rng, 1e-3, m), cfg)
        assert Lanes.of([state]).in_ball


class TestOneVelocityStage:
    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("m", [0, 3, 48])
    @pytest.mark.parametrize("variant", ["plain", "truncated", "hyper"])
    @pytest.mark.parametrize("scheme", ["ito_euler", "stratonovich_heun"])
    def test_matches_two_transport_reference(self, n, m, variant, scheme):
        # transporting by eta_f u + w/dt once equals transporting by u and by
        # w separately, to round-off
        g = sp.Grid(n)
        rng = np.random.default_rng(n + m)
        state = two_cutoff_state(g, rng, band=n // 3)
        gu, gth = state.grad_sups
        r = 0.9 * gu
        params = {"plain": {}, "truncated": {"r": r}, "hyper": {"r": r, "nu": 1e-12}}[variant]
        cfg = SchemeConfig(scheme, dt=1e-3, variant=variant, **params)
        if variant != "plain":
            eta_u, eta_th = eta_cutoff(gu, r), eta_cutoff(gth, r)
            assert 0.0 < eta_u < 1.0 and 0.0 < eta_th < 1.0 and eta_u != eta_th
        basis = build_basis(default_family(g, max_modes=m), g) if m else empty_basis(g)
        increments = sample_increments(rng, 1e-3, m) if m else zero_increments(1e-3)
        new = step(state, basis, increments, cfg)
        ref = step_two_transport_reference(state, basis, increments, cfg)
        for got, want in zip((new.omega, new.theta), ref):
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= \
                1e-14 * np.max(np.abs(want.coeffs))


def _workspace_buffers():
    return list(sp._scratch.__dict__.get("bufs", {}).values())


def _steps(state, basis, cfg, increments):
    for db in increments:
        state = step(state, basis, db, cfg)
    return state


_FAULTS_SCRIPT = """
import resource, sys
import numpy as np
from sbq import spectral as sp
from sbq.integrator import SchemeConfig, step
from sbq.noise import build_basis, default_family, sample_increments
from sbq.state import SimState
scheme, n = sys.argv[1], int(sys.argv[2])
g = sp.Grid(n)
rng = np.random.default_rng(3)
state = SimState(sp.random_field(g, rng, band=n // 3, zero_mean=True),
                 sp.random_field(g, rng, band=n // 3))
basis = build_basis(default_family(g), g)
variant = {"ito_euler": {"variant": "truncated", "r": 0.5}}.get(scheme, {})
cfg = SchemeConfig(scheme, dt=1e-3, **variant)
path = [sample_increments(rng, 1e-3, len(basis)) for _ in range(70)]
for db in path[:20]:
    state = step(state, basis, db, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for db in path[20:]:
    state = step(state, basis, db, cfg)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


_LANE_FAULTS_SCRIPT = """
import resource, sys
import numpy as np
from sbq import spectral as sp
from sbq.integrator import SchemeConfig, _advance
from sbq.noise import build_basis, default_family
from sbq.state import Lanes, SimState
n, lanes = int(sys.argv[1]), int(sys.argv[2])
g = sp.Grid(n)
rng = np.random.default_rng(3)
stack = Lanes.of([SimState(sp.random_field(g, rng, band=n // 3, zero_mean=True),
                           sp.random_field(g, rng, band=n // 3)) for _ in range(lanes)])
basis = build_basis(default_family(g), g)
cfg = SchemeConfig("stratonovich_heun", dt=1e-3, variant="hyper", r=0.5, nu=1e-12)
path = rng.normal(0.0, np.sqrt(1e-3), (70, lanes, len(basis)))
for k, db in enumerate(path):
    if k == 20:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    stack, errors = _advance(stack, basis, db, 1e-3, cfg, (k + 1) * 1e-3)
    assert not any(errors)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


def _minor_faults_per_step(script, pad, *args):
    src = os.path.dirname(os.path.dirname(sp.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", SBQ_TEST_PAD="x" * pad)
    out = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                         env=env, capture_output=True, text=True, check=True)
    return float(out.stdout)


class TestWorkspace:
    @pytest.mark.parametrize("case", [
        "plain", "truncated", "hyper", "unpaired", "no_drift", "empty_basis"])
    @pytest.mark.parametrize("scheme", ["stratonovich_heun", "ito_euler"])
    def test_matches_full_layout_reference(self, scheme, case):
        # half storage and the workspace change where values live, never
        # their bits: every state's coeffs view equals the full-layout step
        g = sp.Grid(32)
        rng = np.random.default_rng(21)
        state = two_cutoff_state(g, rng, band=10)
        gu, gth = state.grad_sups
        r = 0.9 * gu
        assert eta_cutoff(gu, r) != eta_cutoff(gth, r)  # 8 inverse planes
        params = {"truncated": {"variant": "truncated", "r": r},
                  "hyper": {"variant": "hyper", "r": r, "nu": 1e-9},
                  "no_drift": {"drift_enabled": False}}.get(case, {})
        cfg = SchemeConfig(scheme, dt=1e-3, **params)
        if case == "empty_basis":
            basis = empty_basis(g)
        elif case == "unpaired":
            basis = build_basis(default_family(g, max_modes=3), g)
            assert basis.ito_diagonals[1]  # shifted diagonals
        else:
            basis = build_basis(default_family(g), g)
        ref = (state.omega.coeffs, state.theta.coeffs, state.blowup_accum)
        for _ in range(20):
            db = sample_increments(rng, 1e-3, len(basis))
            state, ref = step(state, basis, db, cfg), step_full_layout_reference(
                ref, basis, db, cfg)
            assert np.array_equal(state.omega.coeffs, ref[0])
            assert np.array_equal(state.theta.coeffs, ref[1])
            assert state.blowup_accum == ref[2]
            assert np.array_equal(state._samples, full_layout_samples(*ref[:2], g)[1])

    @pytest.mark.parametrize("scheme", ["stratonovich_heun", "ito_euler"])
    def test_states_own_their_memory(self, grid, scheme):
        rng = np.random.default_rng(22)
        state = two_cutoff_state(grid, rng, band=10)
        basis = build_basis(default_family(grid, max_modes=3), grid)
        cfg = SchemeConfig(scheme, dt=1e-3, variant="truncated",
                           r=0.9 * state.grad_sups[0])
        held = step(state, basis, sample_increments(rng, 1e-3, 3), cfg)
        arrays = (held.omega.coeffs, held.theta.coeffs, held._samples,
                  held.velocity.u1.coeffs, held.velocity.u2.coeffs)
        copies = [a.copy() for a in arrays]
        bad = BrownianIncrements(np.array([np.nan, 0.0, 0.0]), 1e-3)
        with pytest.raises(BlowUpSuspected) as info:
            step(held, basis, bad, cfg)
        assert info.value.last_state is held
        later = _steps(held, basis, cfg, [sample_increments(rng, 1e-3, 3) for _ in range(3)])
        buffers = _workspace_buffers()
        assert buffers
        for a in arrays + (later.omega.coeffs, later.theta.coeffs, later._samples):
            assert not any(np.shares_memory(a, b) for b in buffers)
        for a, c in zip(arrays, copies):
            assert np.array_equal(a, c)

    @pytest.mark.parametrize("sizes", [(32, 32), (32, 64)])
    def test_threads_match_sequential(self, sizes):
        # each thread steps with its own workspace
        jobs = []
        for i, n in enumerate(sizes):
            g = sp.Grid(n)
            rng = np.random.default_rng(30 + i)
            state = two_cutoff_state(g, rng, band=n // 3)
            basis = build_basis(default_family(g), g)
            cfg = SchemeConfig(("stratonovich_heun", "ito_euler")[i], dt=1e-3,
                               variant="truncated", r=0.9 * state.grad_sups[0])
            jobs.append((state, basis, cfg,
                         [sample_increments(rng, 1e-3, len(basis)) for _ in range(30)]))
        sequential = [_steps(*job) for job in jobs]
        results = [None, None]
        start = threading.Barrier(2)

        def work(i):
            start.wait()
            results[i] = _steps(*jobs[i])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(results, sequential):
            assert np.array_equal(got.omega.coeffs, want.omega.coeffs)
            assert np.array_equal(got.theta.coeffs, want.theta.coeffs)
            assert got.blowup_accum == want.blowup_accum

    @pytest.mark.parametrize("pad", [1, 3000])
    @pytest.mark.parametrize("scheme, n", [("stratonovich_heun", 128), ("ito_euler", 64)])
    def test_steps_take_no_page_faults(self, scheme, n, pad):
        # freed per-stage temporaries used to come back as hundreds of minor
        # page faults per step; the environment size moves the heap layout
        assert _minor_faults_per_step(_FAULTS_SCRIPT, pad, scheme, n) <= 10.0

    @pytest.mark.parametrize("pad", [1, 3000])
    def test_lane_steps_take_no_page_faults(self, pad):
        # four lanes at n = 64 hold the stack's fresh arrays of a 1-lane step
        # at n = 128; only the new fields and velocities are allocated per step
        assert _minor_faults_per_step(_LANE_FAULTS_SCRIPT, pad, 64, 4) <= 10.0


class TestLanes:
    """Realizations stepped as lanes of one stack: every lane is bit for bit
    the realization run alone."""

    @staticmethod
    def lane_states(g, rng):
        # lane 0's cutoffs agree (both sups below r); lanes 1 and 2 each have
        # two cutoffs inside (0, 1), and no cutoff of one equals one of the other
        base = two_cutoff_state(g, rng, band=10)
        r = 0.9 * base.grad_sups[0]
        return [SimState(0.1 * base.omega, 0.1 * base.theta), base,
                SimState(1.1 * base.omega, 0.9 * base.theta)], r

    @staticmethod
    def assert_same(got, want):
        assert got.final_state.omega.half.tobytes() == want.final_state.omega.half.tobytes()
        assert got.final_state.theta.half.tobytes() == want.final_state.theta.half.tobytes()
        assert got.final_state.blowup_accum == want.final_state.blowup_accum
        assert got.records == want.records
        assert (got.blowup_suspected, got.abort_step, got.steps_taken) == \
            (want.blowup_suspected, want.abort_step, want.steps_taken)

    @pytest.mark.parametrize("case", ["plain", "truncated", "hyper", "unpaired", "empty_basis"])
    @pytest.mark.parametrize("scheme", ["stratonovich_heun", "ito_euler"])
    def test_lanes_match_solo_runs(self, scheme, case):
        g = sp.Grid(32)
        states, r = self.lane_states(g, np.random.default_rng(40))
        params = {"truncated": {"variant": "truncated", "r": r},
                  "hyper": {"variant": "hyper", "r": r, "nu": 1e-9}}.get(case, {})
        cfg = SchemeConfig(scheme, dt=1e-3, **params)
        if case == "truncated":
            etas = [tuple(eta_cutoff(x, r) for x in s.grad_sups) for s in states]
            assert etas[0] == (1.0, 1.0) and len({*etas[1], *etas[2]}) == 4
        if case == "empty_basis":
            basis = empty_basis(g)
        else:
            basis = build_basis(default_family(g, max_modes=3 if case == "unpaired" else None), g)
        lanes = _run_lanes(states, basis, cfg, 0.01, diag_interval=4,
                           rngs=[np.random.default_rng(50 + i) for i in range(3)])
        for i, (state, got) in enumerate(zip(states, lanes)):
            want = run(state, basis, cfg, 0.01, rng=np.random.default_rng(50 + i),
                       diag_interval=4)
            assert want.steps_taken == 10 and len(want.records) == 4
            self.assert_same(got, want)

    def test_repeated_state_pays_one_gradient_inverse(self, monkeypatch):
        # an ensemble batch stacks one initial state R times; the stack reads
        # the state's own samples, computed once
        state = two_cutoff_state(sp.Grid(32), np.random.default_rng(42), band=10)
        assert fft_planes(monkeypatch, lambda: Lanes.of([replace(state)] * 4)) == \
            {"irfft2": [6]}

    def test_grad_theta_is_each_lanes_own(self):
        # an in-ball random_hs lane, a Taylor-Green lane and the first one
        # repeated, stacked by Lanes.of, then as the stepper makes them
        g = sp.Grid(32)
        lanes = Lanes.of(TestCarriedBall.stack(g, "taken"))
        basis = build_basis(default_family(g), g)
        rng = np.random.default_rng(43)
        for k in range(3):
            assert lanes.grad_theta.shape == (3, 2, g.n, g.n)
            got = lanes.grad_theta.copy()  # the workspace's; the states' are fresh
            for lane in range(3):
                want = lanes.state(lane).grad_theta
                assert np.array_equal(got[lane, 0], want[0])
                assert np.array_equal(got[lane, 1], want[1])
            db = rng.normal(0.0, np.sqrt(1e-3), (3, len(basis)))
            lanes, _ = _advance(lanes, basis, db, 1e-3,
                                SchemeConfig("stratonovich_heun", dt=1e-3), (k + 1) * 1e-3)

    @pytest.mark.parametrize("scheme", ["stratonovich_heun", "ito_euler"])
    def test_blown_up_lane_keeps_partial_records(self, scheme):
        g = sp.Grid(32)
        rng = np.random.default_rng(41)
        state = two_cutoff_state(g, rng, band=10)
        basis = build_basis(default_family(g, max_modes=3), g)
        paths = [rng.normal(0.0, np.sqrt(1e-3), (10, 3)) for _ in range(3)]
        paths[1][4, 0] = np.nan  # lane 1 goes non-finite in its fifth step
        cfg = SchemeConfig(scheme, dt=1e-3)
        lanes = _run_lanes([state] * 3, basis, cfg, 0.01, increments=paths, diag_interval=1)
        for got, path in zip(lanes, paths):
            self.assert_same(got, run(state, basis, cfg, 0.01, increments=path,
                                      diag_interval=1))
        assert lanes[1].blowup_suspected and lanes[1].abort_step == 4
        assert lanes[1].steps_taken == 4 and len(lanes[1].records) == 5
        assert not (lanes[0].blowup_suspected or lanes[2].blowup_suspected)
        assert lanes[0].steps_taken == lanes[2].steps_taken == 10


class TestOutsideTheBall:
    """States with modes the 2/3 rule removes take the full inverse for
    their samples, and their stages invert grad theta themselves: the bits
    are those of the derivatives' samples, the full-layout reference step
    and the realization stepped alone, also next to a lane inside the ball."""

    @staticmethod
    def outside(g, kind):
        if kind == "taylor_green":  # from_physical: round-off in every mode
            tg = initial_condition({"type": "taylor_green", "amplitude": 1.0}, g)
            return SimState(tg.omega, sp.SpectralField.from_physical(
                g, 0.5 * np.cos(g.x + 2.0 * g.y)))
        # theta a single mode beyond n/3 that the stage's 2/3 rule removes
        theta = initial_condition({"type": "single_mode", "wavevector": [g.n // 3 + 1, 1],
                                   "amplitude": 0.5, "target": "theta"}, g).theta
        rng = np.random.default_rng(g.n)
        return SimState(sp.random_field(g, rng, band=5, zero_mean=True), theta)

    @staticmethod
    def assert_samples(state):
        u = state.velocity
        want = [sp.derivative(f, axis).values()
                for f in (u.u1, u.u2, state.theta) for axis in ("x", "y")]
        for got, plane in zip(state._samples, want):
            assert np.array_equal(got, plane)

    @pytest.mark.parametrize("kind", ["taylor_green", "single_mode"])
    @pytest.mark.parametrize("variant", ["plain", "truncated"])
    @pytest.mark.parametrize("scheme", ["stratonovich_heun", "ito_euler"])
    def test_steps_match_full_layout_reference(self, scheme, variant, kind):
        g = sp.Grid(32)
        state = self.outside(g, kind)
        assert not sp._in_ball(np.stack((state.omega.half, state.theta.half)), g)
        params = {"truncated": {"variant": "truncated", "r": 0.5 * max(state.grad_sups)}}
        cfg = SchemeConfig(scheme, dt=1e-3, **params.get(variant, {}))
        basis = build_basis(default_family(g), g)
        rng = np.random.default_rng(60)
        ref = (state.omega.coeffs, state.theta.coeffs, state.blowup_accum)
        for _ in range(5):
            self.assert_samples(state)
            db = sample_increments(rng, 1e-3, len(basis))
            state, ref = step(state, basis, db, cfg), step_full_layout_reference(
                ref, basis, db, cfg)
            assert np.array_equal(state.omega.coeffs, ref[0])
            assert np.array_equal(state.theta.coeffs, ref[1])
            assert state.blowup_accum == ref[2]
        self.assert_samples(state)

    @pytest.mark.parametrize("kind", ["taylor_green", "single_mode"])
    @pytest.mark.parametrize("scheme", ["stratonovich_heun", "ito_euler"])
    def test_mixed_stack_matches_solo_runs(self, scheme, kind):
        # one lane inside the ball, one outside: the stack takes the full
        # path, and the inside lane's bits do not move
        g = sp.Grid(32)
        states = [two_cutoff_state(g, np.random.default_rng(61), band=10), self.outside(g, kind)]
        assert not Lanes.of(states).in_ball and Lanes.of(states[:1]).in_ball
        cfg = SchemeConfig(scheme, dt=1e-3, variant="truncated",
                           r=0.9 * states[0].grad_sups[0])
        basis = build_basis(default_family(g), g)
        lanes = _run_lanes(states, basis, cfg, 0.006, diag_interval=2,
                           rngs=[np.random.default_rng(70 + i) for i in range(2)])
        for i, (state, got) in enumerate(zip(states, lanes)):
            want = run(state, basis, cfg, 0.006, rng=np.random.default_rng(70 + i),
                       diag_interval=2)
            assert want.steps_taken == 6 and len(want.records) == 4
            TestLanes.assert_same(got, want)
            self.assert_samples(got.final_state)


class TestCarriedBall:
    """``Lanes.in_ball`` is scanned once, by ``Lanes.of``, then carried by
    the stepper (its rates are zero outside the ball) and by ``take``: after
    every step it equals a fresh scan of the lanes' fields."""

    @staticmethod
    def stack(g, kind):
        hs = initial_condition({"type": "random_hs", "s_omega": 2.0, "s_theta": 2.0,
                                "seed": 3, "amplitude": 1.0}, g)
        tg = TestOutsideTheBall.outside(g, "taylor_green")
        return {"random_hs": [hs, SimState(0.5 * hs.omega, 1.5 * hs.theta)],
                "taylor_green": [tg], "mixed": [hs, tg], "taken": [hs, tg, hs]}[kind]

    @pytest.mark.parametrize("kind", ["random_hs", "taylor_green", "mixed", "taken"])
    @pytest.mark.parametrize("variant", ["plain", "truncated", "hyper"])
    @pytest.mark.parametrize("scheme", ["stratonovich_heun", "ito_euler"])
    def test_carried_flag_equals_a_fresh_scan(self, scheme, variant, kind):
        g = sp.Grid(32)
        states = self.stack(g, kind)
        r = 0.5 * max(states[0].grad_sups)
        params = {"truncated": {"r": r}, "hyper": {"r": r, "nu": 1e-9}}.get(variant, {})
        cfg = SchemeConfig(scheme, dt=1e-3, variant=variant, **params)
        basis = build_basis(default_family(g), g)
        rng = np.random.default_rng(80)
        lanes = Lanes.of(states)
        assert lanes.in_ball == (kind == "random_hs")
        for k in range(20):
            db = rng.normal(0.0, np.sqrt(1e-3), (len(lanes), len(basis)))
            if kind == "taken" and k == 5:
                db[1, 0] = np.nan  # the Taylor-Green lane freezes and is dropped
            lanes, errors = _advance(lanes, basis, db, 1e-3, cfg, (k + 1) * 1e-3)
            if any(errors):
                lanes = lanes.take([row for row, error in enumerate(errors) if error is None])
            assert lanes.in_ball == sp._in_ball(lanes.fields, g)
        assert len(lanes) == len(states) - (kind == "taken")
        assert lanes.in_ball == (kind in ("random_hs", "taken"))


class TestNoWorkspaceAliasing:
    """The loop's stacks keep their velocity and samples in the workspace;
    the states it hands out (``Lanes.state``, ``final_state``) view only the
    stacks' fresh fields, and their caches are their own."""

    @staticmethod
    def setup(g):
        state = TestCarriedBall.stack(g, "random_hs")[0]
        basis = build_basis(default_family(g), g)
        cfg = SchemeConfig("stratonovich_heun", dt=1e-3, variant="truncated",
                           r=0.9 * state.grad_sups[0])
        return state, basis, cfg

    @staticmethod
    def arrays(state):
        v = state.velocity
        return (state.omega.half, state.theta.half, v.u1.half, v.u2.half, state._samples)

    def test_held_states_keep_their_values(self):
        g = sp.Grid(32)
        state, basis, cfg = self.setup(g)
        results = [Trajectory(final_state=state)]
        for index, lanes in _lane_steps(results, basis, cfg, 0.008,
                                        [np.random.default_rng(7)], diag_interval=1):
            if index == 4:  # hold a state mid-run, its cache filled now
                held = lanes.state(0)
                copies = [a.copy() for a in self.arrays(held)] + [held.grad_sups]
        (traj,) = results
        assert traj.steps_taken == 8
        run(TestCarriedBall.stack(g, "taylor_green")[0], basis, cfg, 0.004,
            rng=np.random.default_rng(8))  # a second run in this thread
        buffers = _workspace_buffers()
        for s in (held, traj.final_state):
            fresh = SimState(s.omega, s.theta)
            assert s.grad_sups == fresh.grad_sups
            for got, want in zip(self.arrays(s), self.arrays(fresh)):
                assert np.array_equal(got, want)
                assert not any(np.shares_memory(got, b) for b in buffers)
            assert all(np.array_equal(a, b) for a, b in zip(s.grad_theta, fresh.grad_theta))
        assert all(np.array_equal(a, b) for a, b in zip(self.arrays(held), copies[:-1]))
        assert held.grad_sups == copies[-1]

    def test_closing_the_loop_early_leaves_later_runs_unchanged(self):
        g = sp.Grid(32)
        state, basis, cfg = self.setup(g)
        want = run(state, basis, cfg, 0.006, rng=np.random.default_rng(9), diag_interval=2)
        results = [Trajectory(final_state=state)]
        for index, _ in _lane_steps(results, basis, cfg, 0.006, [np.random.default_rng(10)]):
            if index == 3:
                break  # the consumer stops; the loop is closed with the stack mid-run
        assert results[0].steps_taken == 3 and results[0].final_state is state
        got = run(state, basis, cfg, 0.006, rng=np.random.default_rng(9), diag_interval=2)
        TestLanes.assert_same(got, want)


PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def _mode_half(g, k1, k2, c):
    """Half spectrum of the real field with the one coefficient c at
    (k1, k2) (and its mirror), k2 >= 0."""
    half = np.zeros((g.n, g.n // 2 + 1), dtype=np.complex128)
    half[k1 % g.n, k2] = c
    if k2 == 0:  # the self-paired column holds both members of the pair
        half[-k1 % g.n, 0] = np.conj(c)
    return half


def _predictor_sups(lanes, increment):
    """The gradient sups of the predictor lanes.fields + increment, as the
    full path reads them."""
    fields = np.add(lanes.fields, increment)
    return Lanes(lanes.grid, fields, 0.0, [0.0] * len(lanes),
                 sp._in_ball(fields, lanes.grid)).sups


def _certify(lanes, increment, r):
    fields = np.add(lanes.fields, increment)
    scratch = np.empty(increment.view(np.float64).shape)
    return _certified(lanes, increment, integrator._finite_lanes(fields), r, scratch)


def _refuse_always(monkeypatch):
    monkeypatch.setattr(integrator, "_certified", lambda *args: False)


def _spy_certificate(monkeypatch) -> list:
    """(lane count, verdict) of every certificate the stepper asks for."""
    verdicts, real = [], integrator._certified

    def spy(lanes, *args):
        verdicts.append((len(lanes), real(lanes, *args)))
        return verdicts[-1][1]

    monkeypatch.setattr(integrator, "_certified", spy)
    return verdicts


class TestCertificate:
    """The Heun predictor's cutoffs are certified 1 from the start sups and
    the step's increment, without a transform: never when a sup exceeds r,
    and with the bits of the full path when they are."""

    @PROPERTY
    @given(n=hst.sampled_from([16, 32, 64]), seed=hst.integers(0, 2**32 - 1),
           start=hst.sampled_from([0.0, 0.3, 1.0, 3.0]),
           kind=hst.sampled_from(["field", "omega_mode", "theta_mode"]),
           scale=hst.sampled_from([1e-3, 0.1, 1.0, 10.0]),
           rel=hst.sampled_from([-1e-9, -1e-15, 0.0, 1e-15, 1e-9, 1e-3]))
    def test_certified_sups_are_below_r(self, n, seed, start, kind, scale, rel):
        # around the predictor's own sup: just below, at and just above it;
        # a lone mode with a real coefficient attains the l1 bound
        g = sp.Grid(n)
        rng = np.random.default_rng(seed)
        band = int(rng.integers(1, n // 3 + 1))
        lanes = Lanes.of([SimState(start * sp.random_field(g, rng, band, zero_mean=True),
                                   start * sp.random_field(g, rng, band))
                          for _ in range(int(rng.integers(1, 3)))])
        increment = np.zeros(lanes.fields.shape, dtype=np.complex128)
        for lane in increment:
            if kind == "field":
                lane[0] = sp.random_field(g, rng, band, zero_mean=True).half
                lane[1] = sp.random_field(g, rng, band).half
            else:
                k1, k2 = int(rng.integers(-band, band + 1)), int(rng.integers(0, band + 1))
                c = complex(rng.normal()) if rng.random() < 0.5 else complex(*rng.normal(size=2))
                lane[kind == "theta_mode"] = _mode_half(g, k1, k2, c * n * n)
        increment *= scale
        sups = np.asarray(_predictor_sups(lanes, increment))
        for sup in (sups.max(), sups.min()):
            for r in (np.nextafter(sup, 0.0), sup * (1.0 + rel)):
                if r > 0 and _certify(lanes, increment, r):
                    assert sups.max() <= r

    def test_lone_modes_attain_their_bound(self):
        # from rest, a real lone mode's sup is the l1 bound itself, up to the
        # rounding of the transform and of the bound's sum, which can put the
        # sup a few ulps above the sum: the slack refuses one ulp below the
        # sup, and the certificate holds just above it
        g = sp.Grid(32)
        lanes = Lanes.of([SimState(sp.SpectralField.zero(g), sp.SpectralField.zero(g))])
        slack = integrator._CERTIFICATE_SLACK * g.n**2
        rng = np.random.default_rng(96)
        for k1 in range(-g.n // 3, g.n // 3 + 1):
            for k2 in range(g.n // 3 + 1):
                if (k1, k2) == (0, 0) or (k2 == 0 and k1 < 0):
                    continue
                increment = np.zeros(lanes.fields.shape, dtype=np.complex128)
                increment[0, (k1 + k2) % 2] = _mode_half(g, k1, k2, rng.normal() * g.n**2)
                sup = max(_predictor_sups(lanes, increment)[0])
                assert not _certify(lanes, increment, np.nextafter(sup, 0.0))
                assert _certify(lanes, increment, sup * (1.0 + 2.0 * slack))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_predictor_is_never_certified(self, bad):
        g = sp.Grid(32)
        lanes = Lanes.of([two_cutoff_state(g, np.random.default_rng(90), band=8)] * 2)
        increment = np.zeros(lanes.fields.shape, dtype=np.complex128)
        assert _certify(lanes, increment, 1e300)
        scratch = np.empty(increment.view(np.float64).shape)
        # a predictor that overflowed from a finite increment
        assert not _certified(lanes, increment, np.array([True, False]), 1e300, scratch)
        increment[1, 1, 2, 3] = bad
        assert not _certify(lanes, increment, 1e300)

    @pytest.mark.parametrize("kind", ["random_hs", "taylor_green"])
    @pytest.mark.parametrize("variant", ["truncated", "hyper"])
    @pytest.mark.parametrize("scheme", ["stratonovich_heun", "ito_euler"])
    def test_certified_steps_match_the_full_path(self, monkeypatch, scheme, variant, kind):
        # r far above the sups: every Heun predictor is certified, and the
        # run has the bits of the path that reads the predictor's sups
        g = sp.Grid(32)
        state = TestCarriedBall.stack(g, kind)[0]
        params = {"r": 50.0 * max(state.grad_sups)}
        if variant == "hyper":
            params["nu"] = 1e-9
        cfg = SchemeConfig(scheme, dt=1e-3, variant=variant, **params)
        basis = build_basis(default_family(g), g)
        verdicts = _spy_certificate(monkeypatch)
        got = run(state, basis, cfg, 0.008, rng=np.random.default_rng(91), diag_interval=2)
        assert verdicts == ([(1, True)] * 8 if scheme == "stratonovich_heun" else [])
        _refuse_always(monkeypatch)
        want = run(state, basis, cfg, 0.008, rng=np.random.default_rng(91), diag_interval=2)
        TestLanes.assert_same(got, want)

    @pytest.mark.parametrize("variant", ["truncated", "hyper"])
    def test_mixed_stack_takes_the_full_path(self, monkeypatch, variant):
        # lane 0 would certify alone, lane 1 not: the stack reads every
        # predictor's sups, and each lane keeps the bits of the full path
        g = sp.Grid(32)
        base = two_cutoff_state(g, np.random.default_rng(92), band=10)
        states, r = [SimState(0.1 * base.omega, 0.1 * base.theta), base], 0.9 * base.grad_sups[0]
        cfg = SchemeConfig("stratonovich_heun", dt=1e-3, variant=variant, r=r,
                           **({"nu": 1e-9} if variant == "hyper" else {}))
        basis = build_basis(default_family(g), g)
        verdicts = _spy_certificate(monkeypatch)

        def rngs():
            return [np.random.default_rng(93 + i) for i in range(2)]

        got = _run_lanes(states, basis, cfg, 0.006, rngs(), diag_interval=2)
        solo = run(states[0], basis, cfg, 0.006, rng=rngs()[0], diag_interval=2)
        assert verdicts == [(2, False)] * 6 + [(1, True)] * 6
        _refuse_always(monkeypatch)
        want = _run_lanes(states, basis, cfg, 0.006, rngs(), diag_interval=2)
        for got_lane, want_lane in zip(got, want):
            TestLanes.assert_same(got_lane, want_lane)
        TestLanes.assert_same(solo, want[0])

    @pytest.mark.parametrize("variant", ["truncated", "hyper"])
    def test_certified_plane_budget(self, monkeypatch, variant):
        # a certified corrector reads no predictor samples: it inverts its own
        # grad theta, inside the ball without the zero fill, as plain Heun's
        g = sp.Grid(64)
        state = initial_condition({"type": "random_hs", "s_omega": 2.0, "s_theta": 2.0,
                                   "seed": 4, "amplitude": 1.0}, g)
        params = {"r": 100.0 * max(state.grad_sups)}
        if variant == "hyper":
            params["nu"] = 1e-12
        cfg = SchemeConfig("stratonovich_heun", dt=1e-3, variant=variant, **params)
        basis = build_basis(default_family(g), g)
        rng = np.random.default_rng(94)
        planes = fft_planes(monkeypatch, lambda: step(
            replace(state), basis, sample_increments(rng, 1e-3, len(basis)), cfg))
        assert planes == {"irfft2": [6, 4, 6], "rfft2": [2, 2]}

    @pytest.mark.parametrize("variant", ["plain", "truncated"])
    def test_in_ball_stages_skip_the_zero_fill(self, monkeypatch, variant):
        # only the two forwards zero the modes the rule removes; each stage's
        # inverse of planes inside the ball skips the fill, also when the
        # stage inverts grad theta itself
        g = sp.Grid(32)
        state = TestCarriedBall.stack(g, "random_hs")[0]
        params = {"truncated": {"r": 100.0 * max(state.grad_sups)}}.get(variant, {})
        cfg = SchemeConfig("stratonovich_heun", dt=1e-3, variant=variant, **params)
        basis = build_basis(default_family(g), g)
        fills, real = [], sp._zero_dropped
        monkeypatch.setattr(sp, "_zero_dropped", lambda *a: fills.append(1) or real(*a))
        step(state, basis, sample_increments(np.random.default_rng(95), 1e-3, len(basis)), cfg)
        assert len(fills) == 2


class TestRun:
    def test_zero_horizon_returns_initial(self, grid):
        state = stationary_state(grid)
        cfg = SchemeConfig("stratonovich_heun", dt=0.01)
        traj = run(state, empty_basis(grid), cfg, T=state.t)
        assert traj.steps_taken == 0
        assert traj.final_state is state
        assert len(traj.records) == 1

    def test_partial_final_step_lands_on_T(self, grid):
        state = stationary_state(grid)
        cfg = SchemeConfig("stratonovich_heun", dt=0.015)
        traj = run(state, empty_basis(grid), cfg, T=0.1, diag_interval=10**9)
        assert traj.final_state.t == pytest.approx(0.1, abs=1e-14)

    @pytest.mark.parametrize("t0, T, dt, nsteps", [
        (1e6, 1e6 + 1.0, 0.1, 10),  # accumulated t drifts into a sliver step
        (0.0, 2.0, 1e-3, 2000),     # accumulated t ends at 1.9999999999998905
    ])
    def test_step_times_exact(self, t0, T, dt, nsteps):
        grid = sp.Grid(16)
        state = replace(stationary_state(grid), t=t0)
        times = []
        results = [Trajectory(final_state=state)]
        for i, lanes in _lane_steps(results, empty_basis(grid), SchemeConfig("ito_euler", dt=dt),
                                    T, diag_interval=10**9):
            if i % (nsteps // 10) == 0 or lanes.t == T:
                times.append((i, lanes.t))
        (traj,) = results
        assert traj.steps_taken == nsteps
        assert traj.final_state.t == T
        assert times == [(k, t0 + k * dt) for k in range(0, nsteps, nsteps // 10)] \
            + [(nsteps, T)]

    def test_precomputed_path_at_large_start_time(self):
        grid = sp.Grid(16)
        t0, dt = 1e6, 0.1
        state = replace(stationary_state(grid), t=t0)
        incr = np.random.default_rng(13).normal(0.0, np.sqrt(dt), (10, 1))
        traj = run(state, constant_shift_basis("x", 1.0, grid),
                   SchemeConfig("stratonovich_heun", dt=dt), t0 + 1.0,
                   increments=incr, diag_interval=10**9)
        assert traj.steps_taken == 10
        assert traj.final_state.t == t0 + 1.0

    def test_long_run_stationarity(self, grid):
        state = stationary_state(grid)
        cfg = SchemeConfig("stratonovich_heun", dt=1e-2)
        traj = run(state, empty_basis(grid), cfg, T=10.0, diag_interval=10**9)
        assert sp.l2_norm(traj.final_state.omega - state.omega) <= 1e-8

    def test_observer_schedule(self, grid):
        state = stationary_state(grid)
        cfg = SchemeConfig("stratonovich_heun", dt=0.01)
        seen = []
        results = [Trajectory(final_state=state)]
        for i, lanes in _lane_steps(results, empty_basis(grid), cfg, T=0.1, diag_interval=2):
            if i % 3 == 0 or lanes.t == 0.1:
                seen.append(i)
        (traj,) = results
        assert seen == [0, 3, 6, 9, 10]  # interval hits plus forced endpoints
        assert len(traj.records) == 6    # diag steps 0, 2, 4, 6, 8 + forced 10

    def test_blowup_run_returns_partial_trajectory(self, grid):
        rng = np.random.default_rng(12)
        omega = sp.random_field(grid, rng, band=10, zero_mean=True, amplitude=30.0)
        theta = sp.random_field(grid, rng, band=10, amplitude=30.0)
        state = SimState(omega, theta)
        cfg = SchemeConfig("stratonovich_heun", dt=0.5)  # wildly unstable
        traj = run(state, empty_basis(grid), cfg, T=50.0, diag_interval=1)
        assert traj.blowup_suspected
        assert traj.abort_step is not None
        assert traj.final_state.is_finite()
