"""Noise basis construction, H^3 budgets, Brownian increments, seeding."""

import numpy as np
import pytest

from sbq import spectral as sp
from sbq.noise import (
    build_basis,
    constant_shift_basis,
    default_family,
    mix_seed,
    sample_increments,
)
from sbq.operators import lie_derivative
from oracles import build_basis_reference, count_ffts


@pytest.fixture(scope="module")
def grid():
    return sp.Grid(64)


def h3_budget_analytic(modes):
    """Closed form for stream modes psi = a trig(k.x):
    ||xi||_H3^2 = (1 + |k|^2)^3 |k|^2 a^2 * 2 pi^2."""
    total = 0.0
    for (k1, k2), _, a in modes:
        ksq = k1 * k1 + k2 * k2
        total += (1 + ksq) ** 3 * ksq * a * a * 2 * np.pi**2
    return total


class TestBuildBasis:
    def test_single_sine_mode(self, grid):
        basis = build_basis([((0, 1), "sine", 1.0)], grid)
        xi = basis.fields[0]
        assert np.allclose(xi.u1.values(), -np.cos(grid.y), atol=1e-12)
        assert np.max(np.abs(xi.u2.values())) < 1e-13
        assert sp.l2_norm(xi.divergence()) < 1e-12

    def test_single_cosine_budget(self, grid):
        a = 0.7
        basis = build_basis([((1, 0), "cosine", a)], grid)
        xi = basis.fields[0]
        assert np.max(np.abs(xi.u1.values())) < 1e-13
        assert np.allclose(xi.u2.values(), -a * np.sin(grid.x), atol=1e-12)
        assert basis.h3_budget == pytest.approx(16 * np.pi**2 * a**2, rel=1e-10)

    def test_rejects_zero_wavevector(self, grid):
        with pytest.raises(ValueError):
            build_basis([((0, 0), "sine", 1.0)], grid)

    def test_rejects_out_of_ball_wavevector(self, grid):
        with pytest.raises(ValueError):
            build_basis([((22, 0), "sine", 1.0)], grid)

    def test_rejects_bad_phase_and_amplitude(self, grid):
        with pytest.raises(ValueError):
            build_basis([((1, 0), "tangent", 1.0)], grid)
        with pytest.raises(ValueError):
            build_basis([((1, 0), "sine", 0.0)], grid)

    def test_power_law_budget_matches_analytic_oracle(self, grid):
        spec = []
        for k1 in range(0, 5):
            for k2 in range(-4, 5):
                if (k1, k2) == (0, 0) or (k1 == 0 and k2 < 0):
                    continue
                if k1 * k1 + k2 * k2 <= 16:
                    a = float(np.hypot(k1, k2)) ** -5.0
                    spec.append(((k1, k2), "sine", a))
                    spec.append(((k1, k2), "cosine", a))
        basis = build_basis(spec, grid)
        assert basis.h3_budget == pytest.approx(h3_budget_analytic(spec), rel=1e-8)

    def test_budget_recompute(self, grid):
        modes = default_family(grid)
        basis = build_basis(modes, grid)
        total = 0.0
        for xi in basis.fields:
            total += sp.sobolev_norm(xi.u1, 3.0) ** 2 + sp.sobolev_norm(xi.u2, 3.0) ** 2
        assert basis.h3_budget == pytest.approx(total, rel=1e-10)

    def test_all_fields_divergence_free(self, grid):
        basis = build_basis(default_family(grid), grid)
        for xi in basis.fields:
            scale = max(np.hypot(sp.l2_norm(xi.u1), sp.l2_norm(xi.u2)), 1e-30)
            assert sp.l2_norm(xi.divergence()) <= 1e-10 * scale


    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_matches_fft2_reference_builder(self, n):
        # exact coefficients against sampled stream functions through fft2
        g = sp.Grid(n)
        wide = [((k, -k // 2), "sine", 0.01 * k) for k in range(1, n // 3 + 1)]
        negative = [((-2, -3), "cosine", 0.2), ((0, -1), "sine", 0.5), ((-4, 0), "cosine", 0.1)]
        for spec in (default_family(g), wide, negative):
            basis = build_basis(spec, g)
            fields, budget, sup = build_basis_reference(basis.modes, g)
            for xi, ref in zip(basis.fields, fields):
                scale = max(np.max(np.abs(ref.u1.coeffs)), np.max(np.abs(ref.u2.coeffs)))
                for ours, want in ((xi.u1, ref.u1), (xi.u2, ref.u2)):
                    assert np.max(np.abs(ours.coeffs - want.coeffs)) <= 1e-13 * scale
            assert basis.h3_budget == pytest.approx(budget, rel=1e-13)
            assert basis.sup_total == pytest.approx(sup, rel=1e-13)

    def test_builds_without_transforms(self, monkeypatch):
        g = sp.Grid(64)
        assert count_ffts(monkeypatch, lambda: build_basis(default_family(g), g)) == 0

    def test_fields_built_only_when_read(self):
        # build_basis and stepping read the modes; the fields are realized on
        # the first read of basis.fields, once
        from sbq.integrator import SchemeConfig, step
        from sbq.state import SimState
        g = sp.Grid(32)
        basis = build_basis(default_family(g), g)
        rng = np.random.default_rng(6)
        state = SimState(sp.random_field(g, rng, band=8, zero_mean=True),
                         sp.random_field(g, rng, band=8))
        for scheme in ("stratonovich_heun", "ito_euler"):
            step(state, basis, sample_increments(rng, 1e-3, len(basis)),
                 SchemeConfig(scheme, dt=1e-3))
        assert len(basis) == 48 and "fields" not in vars(basis)
        assert len(basis.fields) == 48 and basis.fields is basis.fields

    def test_transport_half_is_the_weighted_sum(self, grid):
        # w = sum_i db_i xi_i from the modes' coefficients, on the half spectrum
        basis = build_basis(default_family(grid), grid)
        db = np.random.default_rng(5).normal(0.0, 0.1, len(basis))
        w1 = sum(b * xi.u1.coeffs for b, xi in zip(db, basis.fields))
        w2 = sum(b * xi.u2.coeffs for b, xi in zip(db, basis.fields))
        half = basis.transport_half(db)
        assert half.shape == (2, 64, 33)
        scale = max(np.max(np.abs(w1)), np.max(np.abs(w2)))
        assert np.max(np.abs(half[0] - w1[:, :33])) <= 1e-15 * scale
        assert np.max(np.abs(half[1] - w2[:, :33])) <= 1e-15 * scale


class TestDefaultFamily:
    def test_mode_set(self, grid):
        modes = default_family(grid, k_max=4)
        wavevectors = {m.wavevector for m in modes}
        # half-plane of 0 < |k| <= 4: 24 wavevectors, two phases each
        assert len(wavevectors) == 24
        assert len(modes) == 48
        for m in modes:
            k1, k2 = m.wavevector
            assert k1 > 0 or (k1 == 0 and k2 > 0)
            assert m.amplitude == pytest.approx(0.1 * np.hypot(k1, k2) ** -5.0)

    def test_truncation_is_canonical_prefix(self, grid):
        full = default_family(grid, k_max=4)
        assert default_family(grid, k_max=4, max_modes=5) == full[:5]


class TestConstantShift:
    def test_axis_fields(self, grid):
        bx = constant_shift_basis("x", 1.0, grid)
        assert np.allclose(bx.fields[0].u1.values(), 1.0)
        assert np.max(np.abs(bx.fields[0].u2.values())) == 0.0
        by = constant_shift_basis("y", 2.0, grid)
        assert np.allclose(by.fields[0].u2.values(), 2.0)
        assert sp.l2_norm(bx.fields[0].divergence()) == 0.0

    def test_transport_of_single_mode(self, grid):
        basis = constant_shift_basis("x", 1.0, grid)
        f = sp.SpectralField.from_physical(grid, np.sin(grid.x))
        lf = lie_derivative(basis.fields[0], f)
        assert np.allclose(lf.values(), np.cos(grid.x), atol=1e-12)

    def test_rejects_zero_amplitude(self, grid):
        with pytest.raises(ValueError):
            constant_shift_basis("x", 0.0, grid)


class TestIncrements:
    def test_reproducible(self):
        a = sample_increments(np.random.default_rng(99), 0.01, 8)
        b = sample_increments(np.random.default_rng(99), 0.01, 8)
        assert np.array_equal(a.values, b.values)
        assert a.dt == 0.01

    def test_rejects_nonpositive_dt(self):
        rng = np.random.default_rng(0)
        for dt in (0.0, -1.0):
            with pytest.raises(ValueError):
                sample_increments(rng, dt, 3)

    def test_sample_variance_window(self):
        # window [0.0097, 0.0103] is the implementer's 99.9% chi-square bound
        # for 1e6 draws at dt = 0.01
        rng = np.random.default_rng(314159)
        draws = sample_increments(rng, 0.01, 10**6).values
        var = float(np.var(draws))
        assert 0.0097 <= var <= 0.0103


class TestSeedMixing:
    def test_documented_finalizer_values(self):
        # splitmix64 finalizer: distinct indices give distinct streams
        assert mix_seed(0, 0) != mix_seed(0, 1)
        assert mix_seed(1, 0) != mix_seed(0, 0)
        assert 0 <= mix_seed(2**64 - 1, 2**32) < 2**64

    def test_deterministic(self):
        assert mix_seed(12345, 7) == mix_seed(12345, 7)

    def test_equal_seeds_give_identical_streams(self):
        s = mix_seed(42, 3)
        a = np.random.default_rng(s).normal(size=16)
        b = np.random.default_rng(s).normal(size=16)
        assert np.array_equal(a, b)


class TestTransportBoundedness:
    def test_h3_derived_transport_bound(self, grid):
        # sum_i <L_xi f, L_xi f> <= S3 / (4 pi^2) * h3_budget * ||f||_H2^2
        # with S3 = sum over Z^2 of (1 + |k|^2)^-3 (embedding constant)
        ks = np.arange(-400, 401)
        K1, K2 = np.meshgrid(ks, ks, indexing="ij")
        s3 = float(np.sum((1.0 + K1**2 + K2**2) ** -3.0))
        basis = build_basis(default_family(grid, k_max=3), grid)
        bound_const = s3 / (4 * np.pi**2) * basis.h3_budget
        rng = np.random.default_rng(2718)
        for _ in range(100):
            f = sp.random_field(grid, rng, band=12)
            total = 0.0
            for xi in basis.fields:
                lf = lie_derivative(xi, f)
                total += sp.inner(lf, lf)
            assert total <= bound_const * sp.sobolev_norm(f, 2.0) ** 2
