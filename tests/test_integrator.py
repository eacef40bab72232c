"""Steppers: scheme semantics, variants, conservation structure, blow-up
bookkeeping, and the run loop."""

from dataclasses import replace

import numpy as np
import pytest

from sbq import spectral as sp
from sbq.config import random_hs_field
from sbq.diagnostics import compute_record
from sbq.integrator import (
    BlowUpSuspected,
    SchemeConfig,
    TimeStepError,
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
from sbq.state import SimState
from oracles import count_ffts, fd_derivative


@pytest.fixture(scope="module")
def grid():
    return sp.Grid(64)


def empty_basis(grid):
    return NoiseBasis((), (), 0.0, grid, 0.0)


def zero_increments(dt):
    return BrownianIncrements(np.zeros(0), dt)


def stationary_state(grid):
    return SimState(sp.SpectralField.from_physical(grid, np.cos(grid.x)),
                    sp.SpectralField.zero(grid))


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

    def test_dt_mismatch_rejected(self, grid):
        cfg = SchemeConfig("ito_euler", dt=0.01)
        with pytest.raises(ValueError):
            step(stationary_state(grid), empty_basis(grid),
                 zero_increments(0.02), cfg)


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
        traj = run(state, empty_basis(grid), SchemeConfig("ito_euler", dt=dt), T,
                   observers=((nsteps // 10, lambda i, s, r: times.append((i, s.t))),),
                   diag_interval=10**9)
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
        traj = run(state, empty_basis(grid), cfg, T=0.1,
                   observers=((3, lambda i, s, r: seen.append(i)),),
                   diag_interval=2)
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
