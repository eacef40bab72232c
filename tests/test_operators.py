"""Lie derivative and first-order operator identities.

The exact-zero tests rely on alias-free grids (n >= 3 * (band_xi + band_f)),
which turn the analytic cancellation identities into round-off statements.
Expected values for the non-divergence-free example come from hand
quadrature: with xi = (sin x, 0), f = cos x one has
<L^2 f, f> = -pi^2, <Lf, Lf> = 3 pi^2 / 2, residual pi^2 / 2.
"""

import numpy as np
import pytest

from sbq import spectral as sp
from sbq import operators as op
from oracles import (
    apply_first_order_reference,
    box_field_reference,
    count_ffts,
    fft_planes,
    lie_derivative_fft2_reference,
    lie_derivative_four_plane_reference,
    run_verification_reference,
)


@pytest.fixture(scope="module")
def grid():
    return sp.Grid(64)


def const_xi(grid, a=1.0, b=0.0):
    ones = np.ones((grid.n, grid.n))
    return sp.VelocityField(
        sp.SpectralField.from_physical(grid, a * ones),
        sp.SpectralField.from_physical(grid, b * ones))


class TestLieDerivative:
    def test_constant_transport(self, grid):
        f = sp.SpectralField.from_physical(grid, np.sin(grid.x))
        lf = op.lie_derivative(const_xi(grid), f)
        assert np.allclose(lf.values(), np.cos(grid.x), atol=1e-12)

    def test_constant_field_annihilated(self, grid):
        rng = np.random.default_rng(0)
        xi = sp.random_divergence_free(grid, rng, band=8)
        c = sp.SpectralField.from_physical(grid, 2.5 * np.ones((grid.n, grid.n)))
        assert sp.l2_norm(op.lie_derivative(xi, c)) < 1e-14

    def test_matches_symbolic_oracle(self, grid):
        # xi = perp-grad(cos x cos y) = (cos x sin y, -sin x cos y), f = sin y
        # L_xi f = xi_2 * cos y = -sin x cos^2 y
        psi = sp.SpectralField.from_physical(grid, np.cos(grid.x) * np.cos(grid.y))
        xi = sp.stream_to_velocity(psi)
        f = sp.SpectralField.from_physical(grid, np.sin(grid.y))
        expect = -np.sin(grid.x) * np.cos(grid.y) ** 2
        assert np.max(np.abs(op.lie_derivative(xi, f).values() - expect)) <= 1e-12

    def test_grid_mismatch(self, grid):
        xi = const_xi(grid)
        with pytest.raises(ValueError):
            op.lie_derivative(xi, sp.SpectralField.zero(sp.Grid(32)))

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_matches_fft2_reference(self, n):
        # both products summed before one half-spectrum transform, against
        # two full complex products summed in Fourier space; full band
        g = sp.Grid(n)
        rng = np.random.default_rng(n + 11)
        xi = sp.random_divergence_free(g, rng, band=n // 2 - 1)
        f = sp.random_field(g, rng, band=n // 2 - 1)
        ref = lie_derivative_fft2_reference(xi, f)
        ours = op.lie_derivative(xi, f)
        assert np.max(np.abs(ours.coeffs - ref.coeffs)) <= \
            1e-14 * np.max(np.abs(ref.coeffs))
        assert ours.hermitian_defect() == 0.0

    def test_cached_samples_match_four_plane_form(self, grid):
        # xi's samples from their own inverse, cached, against xi inverted
        # with grad f: bit for bit on the first call and on later calls
        rng = np.random.default_rng(12)
        xi = sp.random_divergence_free(grid, rng, band=grid.n // 2 - 1)
        f = sp.random_field(grid, rng, band=grid.n // 2 - 1)
        g = sp.random_field(grid, rng, band=grid.n // 2 - 1)
        for h in (f, f, g):
            assert np.array_equal(op.lie_derivative(xi, h).coeffs,
                                  lie_derivative_four_plane_reference(xi, h).coeffs)

    def test_plane_budget(self, grid, monkeypatch):
        # the first call inverts xi (2 planes), then grad f (2 planes)
        rng = np.random.default_rng(13)
        xi = sp.random_divergence_free(grid, rng, band=8)
        f = sp.random_field(grid, rng, band=8)
        first = fft_planes(monkeypatch, lambda: op.lie_derivative(xi, f))
        assert first == {"irfft2": [2, 2], "rfft2": [1]}
        again = fft_planes(monkeypatch, lambda: op.lie_derivative(xi, f))
        assert again == {"irfft2": [2], "rfft2": [1]}


class TestLieSecond:
    def test_constant_transport_twice(self, grid):
        xi = const_xi(grid)
        f = sp.SpectralField.from_physical(grid, np.sin(grid.x))
        assert np.allclose(op.lie_second(xi, f).values(), -np.sin(grid.x), atol=1e-12)
        g = sp.SpectralField.from_physical(grid, np.cos(2 * grid.x))
        assert np.allclose(op.lie_second(xi, g).values(), -4 * np.cos(2 * grid.x),
                           atol=1e-11)

    def test_composition_matches_two_applications(self, grid):
        rng = np.random.default_rng(1)
        xi = sp.random_divergence_free(grid, rng, band=6)
        f = sp.random_field(grid, rng, band=6)
        once = op.lie_derivative(xi, op.lie_derivative(xi, f))
        twice = op.lie_second(xi, f)
        assert np.max(np.abs(once.coeffs - twice.coeffs)) <= \
            1e-12 * max(1.0, np.max(np.abs(once.coeffs)))


class TestCancellation:
    def test_constant_coefficient_exact(self, grid):
        f = sp.SpectralField.from_physical(grid, np.sin(grid.x))
        assert op.cancellation_residual(const_xi(grid), f) == pytest.approx(0.0, abs=1e-13)

    def test_divergence_free_alias_free_is_zero(self):
        # n >= 3 (b_xi + b_f) keeps every intermediate product exact
        band = 5
        grid = op.alias_free_grid(band, band)
        assert grid.n >= 3 * 2 * band
        rng = np.random.default_rng(2)
        for _ in range(20):
            xi = sp.random_divergence_free(grid, rng, band)
            f = sp.random_field(grid, rng, band)
            res = op.cancellation_residual(xi, f)
            assert abs(res) <= 1e-10 * max(1.0, sp.sobolev_norm(f, 1.0) ** 2)

    def test_non_divergence_free_analytic_value(self, grid):
        xi = sp.VelocityField(
            sp.SpectralField.from_physical(grid, np.sin(grid.x)),
            sp.SpectralField.zero(grid))
        f = sp.SpectralField.from_physical(grid, np.cos(grid.x))
        lf = op.lie_derivative(xi, f)
        llf = op.lie_derivative(xi, lf)
        assert sp.inner(llf, f) == pytest.approx(-np.pi**2, rel=1e-12)
        assert sp.inner(lf, lf) == pytest.approx(1.5 * np.pi**2, rel=1e-12)
        assert op.cancellation_residual(xi, f) == pytest.approx(np.pi**2 / 2, rel=1e-12)

    def test_antisymmetry_for_divergence_free(self, grid):
        rng = np.random.default_rng(3)
        for _ in range(20):
            xi = sp.random_divergence_free(grid, rng, band=8)
            f = sp.random_field(grid, rng, band=8)
            g = sp.random_field(grid, rng, band=8)
            lhs = sp.inner(op.lie_derivative(xi, f), g)
            rhs = -sp.inner(f, op.lie_derivative(xi, g))
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))


class TestWeightedCancellation:
    def test_constant_coefficient_commutes(self, grid):
        f = sp.SpectralField.from_physical(grid, np.sin(grid.x) + np.cos(2 * grid.y))
        assert op.weighted_cancellation_ratio(2.0, const_xi(grid), f) == \
            pytest.approx(0.0, abs=1e-12)

    def test_bounded_over_growing_norms(self, grid):
        psi = sp.SpectralField.from_physical(grid, np.sin(grid.y))
        xi = sp.stream_to_velocity(psi)
        rng = np.random.default_rng(4)
        ratios = []
        for i in range(40):
            f = sp.random_field(grid, rng, band=12, amplitude=float(1 + i))
            ratios.append(abs(op.weighted_cancellation_ratio(2.0, xi, f)))
        # bound independent of the H4 norm of f (which grows with amplitude)
        assert max(ratios) <= 1.5 * op.BASELINES["weighted_ratio_k2"] * 2
        assert max(ratios) / np.median(ratios) < 10

    def test_single_mode_sweep_bounded(self, grid):
        psi = sp.SpectralField.from_physical(grid, np.sin(grid.y))
        xi = sp.stream_to_velocity(psi)
        ratios = [abs(op.weighted_cancellation_ratio(
            2.0, xi, sp.SpectralField.from_physical(grid, np.cos(m * grid.x))))
            for m in range(1, 9)]
        assert max(ratios) <= 1.5 * op.BASELINES["example_sweep_max"]

    def test_rejects_zero_field_and_bad_k(self, grid):
        xi = const_xi(grid)
        with pytest.raises(ValueError):
            op.weighted_cancellation_ratio(2.0, xi, sp.SpectralField.zero(grid))
        f = sp.SpectralField.from_physical(grid, np.sin(grid.x))
        with pytest.raises(ValueError):
            op.weighted_cancellation_ratio(0.5, xi, f)

    def test_fractional_k_evaluates(self, grid):
        # fractional weights are supported and reported, no growth target
        psi = sp.SpectralField.from_physical(grid, np.sin(grid.y))
        xi = sp.stream_to_velocity(psi)
        f = sp.SpectralField.from_physical(grid, np.cos(3 * grid.x))
        val = op.weighted_cancellation_ratio(2.5, xi, f)
        assert np.isfinite(val)


class TestFirstOrderOp:
    def test_pure_derivative(self, grid):
        ones = sp.SpectralField.from_physical(grid, np.ones((grid.n, grid.n)))
        zero = sp.SpectralField.zero(grid)
        q = op.FirstOrderOp(ones, zero, zero)
        f = sp.SpectralField.from_physical(grid, np.sin(grid.x))
        assert np.allclose(op.apply_first_order(q, f).values(), np.cos(grid.x),
                           atol=1e-12)

    def test_pure_zero_order(self, grid):
        zero = sp.SpectralField.zero(grid)
        c = sp.SpectralField.from_physical(grid, np.cos(grid.y))
        q = op.FirstOrderOp(zero, zero, c)
        ones = sp.SpectralField.from_physical(grid, np.ones((grid.n, grid.n)))
        assert np.allclose(op.apply_first_order(q, ones).values(), np.cos(grid.y),
                           atol=1e-12)

    def test_matches_symbolic_oracle(self, grid):
        # Q = (sin x) d_x + (cos y) d_y + (sin y); f = cos x sin y
        a = sp.SpectralField.from_physical(grid, np.sin(grid.x))
        b = sp.SpectralField.from_physical(grid, np.cos(grid.y))
        c = sp.SpectralField.from_physical(grid, np.sin(grid.y))
        q = op.FirstOrderOp(a, b, c)
        f = sp.SpectralField.from_physical(grid, np.cos(grid.x) * np.sin(grid.y))
        expect = (np.sin(grid.x) * (-np.sin(grid.x)) * np.sin(grid.y)
                  + np.cos(grid.y) * np.cos(grid.x) * np.cos(grid.y)
                  + np.sin(grid.y) * np.cos(grid.x) * np.sin(grid.y))
        assert np.max(np.abs(op.apply_first_order(q, f).values() - expect)) <= 1e-12

    def test_coefficients_projected_into_ball(self, grid):
        rng = np.random.default_rng(5)
        wide = sp.random_field(grid, rng, band=30)
        q = op.FirstOrderOp(wide, wide, wide)
        outside = ~grid.dealias_keep
        assert np.max(np.abs(q.a.coeffs[outside])) == 0.0

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_matches_three_product_reference(self, n):
        # the three products summed in physical space before one forward
        # transform, against three transformed products summed in Fourier
        # space; full band
        g = sp.Grid(n)
        rng = np.random.default_rng(n + 17)
        q = op.FirstOrderOp(*(sp.random_field(g, rng, band=n // 2 - 1)
                              for _ in range(3)))
        f = sp.random_field(g, rng, band=n // 2 - 1)
        for _ in range(2):
            ours = op.apply_first_order(q, f)
            ref = apply_first_order_reference(q, f)
            assert np.max(np.abs(ours.coeffs - ref.coeffs)) <= \
                1e-14 * np.max(np.abs(ref.coeffs))
            assert ours.hermitian_defect() == 0.0

    def test_plane_budget(self, grid, monkeypatch):
        # the first call inverts (a, b, c), then (d_x f, d_y f, f)
        rng = np.random.default_rng(14)
        q = op.FirstOrderOp(*(sp.random_field(grid, rng, band=4) for _ in range(3)))
        f = sp.random_field(grid, rng, band=8)
        first = fft_planes(monkeypatch, lambda: op.apply_first_order(q, f))
        assert first == {"irfft2": [3, 3], "rfft2": [1]}
        again = fft_planes(monkeypatch, lambda: op.apply_first_order(q, f))
        assert again == {"irfft2": [3], "rfft2": [1]}


class TestAdjointDefect:
    def test_zero_order_symbol(self, grid):
        # e = 2c - a_x - b_y, assembled analytically
        a = sp.SpectralField.from_physical(grid, np.sin(grid.x))
        zero = sp.SpectralField.zero(grid)
        q = op.FirstOrderOp(a, zero, zero)
        e = op.zero_order_defect(q)
        assert np.allclose(e.values(), -np.cos(grid.x), atol=1e-12)

    def test_identity_over_random_pairs(self, grid):
        rng = np.random.default_rng(6)
        for _ in range(100):
            q = op.FirstOrderOp(sp.random_field(grid, rng, band=6),
                                sp.random_field(grid, rng, band=6),
                                sp.random_field(grid, rng, band=6))
            f = sp.random_field(grid, rng, band=8)
            g = sp.random_field(grid, rng, band=8)
            defect = op.adjoint_defect(q, f, g)
            assert abs(defect) <= 1e-10 * max(1.0, sp.l2_norm(f) * sp.l2_norm(g))


class TestGeneralEstimate:
    def test_divergence_free_no_zero_order_is_exact(self, grid):
        # c = 0 and div(a, b) = 0 gives E = 0 and exact anti-self-adjointness
        rng = np.random.default_rng(7)
        xi = sp.random_divergence_free(grid, rng, band=6)
        q = op.FirstOrderOp(xi.u1, xi.u2, sp.SpectralField.zero(grid))
        f = sp.random_field(grid, rng, band=6)
        assert op.general_estimate_ratio(0.0, q, f) == pytest.approx(0.0, abs=1e-12)

    def test_matches_cancellation_example(self, grid):
        a = sp.SpectralField.from_physical(grid, np.sin(grid.x))
        zero = sp.SpectralField.zero(grid)
        q = op.FirstOrderOp(a, zero, zero)
        f = sp.SpectralField.from_physical(grid, np.cos(grid.x))
        numerator = op.general_estimate_ratio(0.0, q, f) * sp.sobolev_norm(f, 0.0) ** 2
        assert numerator == pytest.approx(np.pi**2 / 2, rel=1e-12)

    def test_k1_ensemble_bounded(self, grid):
        rng = np.random.default_rng(8)
        q = op.FirstOrderOp(sp.random_field(grid, rng, band=4),
                            sp.random_field(grid, rng, band=4),
                            sp.random_field(grid, rng, band=4))
        ratios = []
        for i in range(40):
            f = sp.random_field(grid, rng, band=12, amplitude=float(1 + i % 5))
            ratios.append(abs(op.general_estimate_ratio(1.0, q, f)))
        assert max(ratios) <= 1.5 * op.BASELINES["general_ratio_k1"] * 2


class TestCommutators:
    def test_constant_coefficients_commute(self, grid):
        ones = sp.SpectralField.from_physical(grid, np.ones((grid.n, grid.n)))
        zero = sp.SpectralField.zero(grid)
        q = op.FirstOrderOp(ones, 0.5 * ones, zero)
        t1, _ = op.commutators(2.0, q)
        rng = np.random.default_rng(9)
        f = sp.random_field(grid, rng, band=10)
        assert sp.l2_norm(t1(f)) <= 1e-10 * sp.sobolev_norm(f, 2.0)

    def test_annihilates_transverse_mode(self, grid):
        a = sp.SpectralField.from_physical(grid, np.sin(grid.x))
        zero = sp.SpectralField.zero(grid)
        q = op.FirstOrderOp(a, zero, zero)
        t1, _ = op.commutators(2.0, q)
        f = sp.SpectralField.from_physical(grid, np.cos(grid.y))
        assert sp.l2_norm(t1(f)) == pytest.approx(0.0, abs=1e-12)

    def test_symbolic_oracle_single_mode(self, grid):
        # Q = sin x d_x, k = 2, f = cos x:
        # Qf = -sin^2 x = (cos 2x - 1)/2; Lam^2 Qf = 2 cos 2x
        # Lam^2 f = cos x; Q Lam^2 f = -sin^2 x = (cos 2x - 1)/2
        # T1 f = 2 cos 2x - (cos 2x - 1)/2 = (3 cos 2x + 1)/2
        a = sp.SpectralField.from_physical(grid, np.sin(grid.x))
        zero = sp.SpectralField.zero(grid)
        q = op.FirstOrderOp(a, zero, zero)
        t1, _ = op.commutators(2.0, q)
        f = sp.SpectralField.from_physical(grid, np.cos(grid.x))
        expect = (3 * np.cos(2 * grid.x) + 1) / 2
        assert np.max(np.abs(t1(f).values() - expect)) <= 1e-12

    def test_order_bounded_over_mode_sweep(self, grid):
        rng = np.random.default_rng(10)
        q = op.FirstOrderOp(sp.random_field(grid, rng, band=4),
                            sp.random_field(grid, rng, band=4),
                            sp.random_field(grid, rng, band=4))
        t1, _ = op.commutators(2.0, q)
        ratios = []
        for m in range(1, 9):
            f = sp.SpectralField.from_physical(grid, np.cos(m * grid.x))
            ratios.append(sp.l2_norm(t1(f)) / sp.sobolev_norm(f, 2.0))
        assert max(ratios) <= 1.5 * op.BASELINES["commutator_order_max"] * 2

    def test_rejects_small_k(self, grid):
        ones = sp.SpectralField.from_physical(grid, np.ones((grid.n, grid.n)))
        q = op.FirstOrderOp(ones, ones, ones)
        with pytest.raises(ValueError):
            op.commutators(0.5, q)


class TestBoxDraw:
    """The battery draws each input from its band's box of normals alone:
    byte for byte the oracles' full-grid form of that draw, and the law of
    ``random_field``."""

    @pytest.mark.parametrize("n", [8, 32, 64, 128])
    def test_matches_reference_draw(self, n):
        g = sp.Grid(n)
        for band in sorted({b for b in (0, 1, 4, 8, 12, n // 2 - 1) if b <= n // 2 - 1}):
            for amplitude in (1.0, 2.5, 0.0):
                rngs = [np.random.default_rng(band) for _ in range(3)]
                ours = op._draw(g, rngs[0], band, amplitude)
                ref = box_field_reference(g, rngs[1], band, amplitude)
                assert ours.half.tobytes() == ref.half.tobytes()
                rngs[2].standard_normal(2 * (2 * band + 1) ** 2)
                states = [rng.bit_generator.state for rng in rngs]
                assert states[0] == states[1] == states[2]

    def test_same_law_as_random_field(self):
        # mean power per mode of the real field's samples: the half spectrum
        # stores both members of a self-paired mode, so only the samples show
        # a draw that skips the conjugate-mirror average (that column would
        # read half the power of random_field's)
        grid, band, draws = sp.Grid(16), 3, 2000
        rows = np.r_[0:band + 1, -band:0]

        def power(draw, seed):
            rng = np.random.default_rng(seed)
            return np.stack([np.abs(np.fft.rfft2(draw(rng).values())[rows, :band + 1]) ** 2
                             for _ in range(draws)])

        box = power(lambda rng: op._draw(grid, rng, band), 31)
        full = power(lambda rng: sp.random_field(grid, rng, band), 32)
        se = np.sqrt((box.var(axis=0, ddof=1) + full.var(axis=0, ddof=1)) / draws)
        assert np.all(np.abs(box.mean(axis=0) - full.mean(axis=0)) <= 5.0 * se)


class TestStackedDraw:
    """The battery draws a batch's rows as stacks, one normal draw per
    batch: every row has the bytes of its row-by-row ``_draw`` and the
    generator ends where the row-by-row draws leave it."""

    @staticmethod
    def garbage(shape):
        # a workspace buffer holds whatever its last user left there
        return np.full(shape, np.nan + 1j * np.nan)

    @pytest.mark.parametrize("n", [8, 32, 64, 128])
    def test_rows_equal_single_draws(self, n):
        g = sp.Grid(n)
        amplitudes = np.array([1.0, 2.5, 0.0, 2.5])
        for band in sorted({b for b in (0, 1, 4, 8, 12, n // 2 - 1) if b <= n // 2 - 1}):
            for rows in (1, 3, 4):
                stacked, single = np.random.default_rng(band), np.random.default_rng(band)
                (normals,) = op._batch_normals(stacked, rows, (band, 1))
                out = self.garbage((rows, n, n // 2 + 1))
                got = sp._box_fields(g, normals[:, 0], band, amplitudes[:rows], out=out)
                assert got is out
                for r in range(rows):
                    want = op._draw(g, single, band, amplitudes[r])
                    assert got[r].tobytes() == want.half.tobytes()
                assert stacked.bit_generator.state == single.bit_generator.state

    @pytest.mark.parametrize("n", [32, 64])
    def test_mixed_band_rows(self, n):
        # the adjoint check's rows: Q's a, b, c at band 4, then f, g at band 8
        g, rows = sp.Grid(n), 4
        stacked, single = np.random.default_rng(5), np.random.default_rng(5)
        q, fg = op._batch_normals(stacked, rows, (4, 3), (8, 2))
        coeffs = np.full((rows, 4, n, n // 2 + 1), np.nan + 0j)[:, 1:]  # strided, as in use
        sp._box_fields(g, q, 4, out=coeffs)
        f, gg = (sp._box_fields(g, fg[:, i], 8) for i in range(2))
        for r in range(rows):
            a, b, c = (op._draw(g, single, 4) for _ in range(3))
            want = [a, b, c, op._draw(g, single, 8), op._draw(g, single, 8)]
            got = [*coeffs[r], f[r], gg[r]]
            assert [x.tobytes() for x in got] == [w.half.tobytes() for w in want]
            # band 4 lies inside the 2/3 ball: Q's projection keeps the bytes
            assert op.FirstOrderOp(a, b, c)._coeffs.tobytes() == coeffs[r].tobytes()
        assert stacked.bit_generator.state == single.bit_generator.state

    @pytest.mark.parametrize("n", [32, 64])
    def test_velocity_rows_equal_stream_to_velocity(self, n):
        g, band, rows = sp.Grid(n), n // 6 - 1, 3
        stacked, single = np.random.default_rng(9), np.random.default_rng(9)
        (normals,) = op._batch_normals(stacked, rows, (band, 1))
        out = self.garbage((rows, 2, n, n // 2 + 1))
        op._velocity_rows(g, normals[:, 0], band, out)
        for r in range(rows):
            v = sp.stream_to_velocity(op._draw(g, single, band))
            assert out[r, 0].tobytes() == v.u1.half.tobytes()
            assert out[r, 1].tobytes() == v.u2.half.tobytes()


class TestRowNorms:
    """Row-wise norms and ratios equal the one-field functions byte for byte."""

    @staticmethod
    def rows(grid):
        rng = np.random.default_rng(3)
        return np.stack([sp.random_field(grid, rng, 8).half,  # inside the 2/3 ball
                         sp.random_field(grid, rng, grid.n // 2 - 1).half,  # outside it
                         np.zeros((grid.n, grid.n // 2 + 1), complex),
                         sp.SpectralField.from_physical(
                             grid, rng.standard_normal((grid.n, grid.n))).half])

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_sobolev_norms(self, n):
        grid = sp.Grid(n)
        halves = self.rows(grid)
        for s in (0.0, 1.0, 1.5, 2.0, 3.0):
            got = sp._sobolev_norms(halves, grid, s)
            for row, value in zip(halves, got.tolist()):
                # the scalar form that sobolev_norm had before the row-wise one
                w = sp._sobolev_weight(grid, s)
                total = float(np.sum(w * np.abs(row) ** 2)) * (2.0 * np.pi) ** 2 / n**4
                assert float_bytes(value) == float_bytes(float(np.sqrt(total)))
                assert float_bytes(value) == float_bytes(
                    sp.sobolev_norm(sp.SpectralField(grid, row.copy()), s))

    @pytest.mark.parametrize("n", [32, 64])
    def test_relative_defects(self, n):
        grid = sp.Grid(n)
        f = self.rows(grid)
        g = f[::-1].copy()
        values = np.array([1e-3, -2.0, 0.5, -0.0])
        got = op._relative(values, f, g).tolist()
        for v, a, b, value in zip(values.tolist(), f, g, got):
            fa, gb = (sp.SpectralField(grid, h.copy()) for h in (a, b))
            want = abs(v) / max(sp.l2_norm(fa) * sp.l2_norm(gb), 1e-30)
            assert float_bytes(value) == float_bytes(want)

    def test_ratios_equal_one_row_formula(self, grid):
        xi = op._standard_xi(grid)
        halves = self.rows(grid)[[0, 1, 3]]
        for k in (1.0, 2.0, 3.0):
            got = op._ratios(k, xi._dealiased_samples, halves, grid).tolist()
            for row, value in zip(halves, got):
                f = sp.SpectralField(grid, row.copy())
                terms = float(op._estimate_terms(k, xi._dealiased_samples, f.half, grid))
                assert float_bytes(value) == float_bytes(terms / sp.sobolev_norm(f, k) ** 2)
        with pytest.raises(ValueError, match="nonzero"):
            op._ratios(1.0, xi._dealiased_samples, self.rows(grid), grid)

    def test_denominators_square_as_python_floats(self):
        # Python's float ** 2 is libm pow, which misses x * x in the last bit
        # for about one value in a thousand: enough rows to meet some
        grid, rng = sp.Grid(8), np.random.default_rng(4)
        halves = np.stack([sp.random_field(grid, rng, 3, float(a)).half
                           for a in rng.uniform(0.5, 8.0, 4000)])
        for k in (1.0, 2.0):
            got = op._squared(sp._sobolev_norms(halves, grid, k))
            want = [sp.sobolev_norm(sp.SpectralField(grid, h.copy()), k) ** 2 for h in halves]
            assert got.tobytes() == np.array(want).tobytes()


def float_bytes(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestVerificationBattery:
    def test_full_battery_passes(self):
        report = op.run_verification()
        failures = [k for k, v in report["checks"].items() if not v["pass"]]
        assert report["pass"], f"failed checks: {failures}"


class TestBatchedBattery:
    """The battery evaluates each check's samples as rows of a batch; every
    figure equals the sample-by-sample evaluation of the oracles."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_small_pass_equals_reference(self, seed):
        assert op.run_verification(seed, samples=5, pairs=5) == \
            run_verification_reference(seed, samples=5, pairs=5)

    def test_standard_report_equals_reference(self):
        assert op.run_verification() == run_verification_reference()

    def test_other_grids_equal_reference(self):
        # batches of 16 rows at n = 32 and of 1 row at n = 128
        for n in (32, 128):
            assert op.run_verification(4, n=n, samples=3, pairs=17) == \
                run_verification_reference(4, n=n, samples=3, pairs=17)

    @pytest.mark.parametrize("k", [2, 3])
    def test_first_order_rows_equal_single_calls(self, grid, k):
        rng = np.random.default_rng(20 + k)
        rows = 5
        fields = [sp.random_field(grid, rng, band=8) for _ in range(rows)]
        if k == 2:
            ops = [sp.random_divergence_free(grid, rng, band=6) for _ in range(rows)]
            samples = np.stack([xi._dealiased_samples for xi in ops])
            single = [op.lie_derivative(xi, f) for xi, f in zip(ops, fields)]
        else:
            ops = [op.FirstOrderOp(*(sp.random_field(grid, rng, band=4) for _ in range(3)))
                   for _ in range(rows)]
            samples = np.stack([q._samples for q in ops])
            single = [op.apply_first_order(q, f) for q, f in zip(ops, fields)]
        halves = np.stack([f.half for f in fields])
        batched = op._first_order(samples, halves, grid)
        for row, want in zip(batched, single):
            assert row.tobytes() == want.half.tobytes()
        # one operator's samples broadcast over the rows, and over (f, g) pairs
        pairs = np.stack((halves, halves[::-1]), axis=1)
        shared = op._first_order(samples[0], pairs, grid)
        for r in range(rows):
            for i, h in enumerate((halves[r], halves[rows - 1 - r])):
                want = op._first_order(samples[0], h, grid)
                assert shared[r, i].tobytes() == want.tobytes()

    @pytest.mark.parametrize("kwargs", [{"samples": 0}, {"pairs": 0}, {"samples": -1},
                                        {"pairs": -3}, {"samples": 0, "pairs": 0}])
    def test_empty_checks_are_rejected(self, kwargs):
        # a check over no samples would pass having checked nothing
        with pytest.raises(ValueError, match="samples and pairs must be >= 1"):
            op.run_verification(1, **{"samples": 5, "pairs": 5, **kwargs})

    def test_fft_calls_per_small_pass(self, monkeypatch):
        # the sample-by-sample reference makes 2430
        calls = count_ffts(monkeypatch, lambda: op.run_verification(1, samples=5, pairs=5))
        assert calls == 629
