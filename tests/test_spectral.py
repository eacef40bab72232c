"""Spectral core: multiplier operators, norms, Biot-Savart, dealiasing.

Derived expected values come from the independent oracle paths in
oracles.py (finite differences on refined grids, dense quadrature);
trivial single-mode identities are asserted directly.
"""

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from sbq import spectral as sp
from sbq.config import random_hs_field
from oracles import (
    fd_derivative_on_refined,
    fine_values,
    hs_field_reference,
    product_fft2_reference,
    quadrature_sobolev_sq,
    random_field_reference,
    velocity_half_reference,
)


@pytest.fixture(scope="module")
def grid():
    return sp.Grid(64)


def field(grid, values):
    return sp.SpectralField.from_physical(grid, values)


class TestGrid:
    def test_invariants(self, grid):
        assert grid.n == 64
        assert grid.k_max == 31
        assert grid.spacing == pytest.approx(2 * np.pi / 64)
        # physical coordinates start at -pi
        assert grid.x[0, 0] == pytest.approx(-np.pi)
        assert grid.x[1, 0] - grid.x[0, 0] == pytest.approx(grid.spacing)

    @pytest.mark.parametrize("n", [6, 7, 9, 0, -4])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            sp.Grid(n)

    def test_equality_by_size(self, grid):
        assert grid == sp.Grid(64)
        assert grid != sp.Grid(32)

    def test_one_instance_per_size(self, grid):
        k1, deriv_x = grid.k1, grid.deriv_x
        assert sp.Grid(64) is grid
        # the constructor never rebuilds what the shared instance holds
        assert grid.k1 is k1 and grid.deriv_x is deriv_x
        assert pickle.loads(pickle.dumps(grid)) is grid
        assert sp._fractional_multiplier(pickle.loads(pickle.dumps(grid)), 1.5) \
            is sp._fractional_multiplier(grid, 1.5)

    def test_resampling_builds_no_meshes(self):
        # a shared grid lives as long as the process: an oversampled norm's
        # fine grid must not keep (n, n) meshes it never reads
        f = sp.random_field(sp.Grid(40), np.random.default_rng(0), band=5)
        fine = sp.resample(f, 1000)
        assert sp.linf_norm(f, oversample=25) == np.max(np.abs(fine.values()))
        assert not {"k1", "k2", "ksq", "dealias_keep", "x", "y"} & set(vars(fine.grid))

    def test_shared_arrays_are_read_only(self, grid):
        for name in ("k1", "k2", "ksq", "dealias_keep", "x", "y", "deriv_x",
                     "_inv_ksq_half", "_perp_half"):
            assert not getattr(grid, name).flags.writeable

    def test_forked_workers_share_the_instance(self, grid):
        # a grid sent to a forked pool worker and back is the same grid on
        # both sides
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            same_in_child, back = pool.submit(_is_grid_64, grid).result(timeout=60)
        assert same_in_child and back is grid


def _is_grid_64(grid):
    return grid is sp.Grid(64), grid


class TestSpectralField:
    def test_round_trip_identity(self, grid):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((64, 64))
        f = field(grid, values)
        assert np.max(np.abs(f.values() - values)) <= 1e-12 * np.max(np.abs(values))

    def test_hermitian_symmetry(self, grid):
        rng = np.random.default_rng(1)
        f = sp.random_field(grid, rng, band=20)
        assert f.hermitian_defect() <= 1e-12

    def test_negation_bytes_equal_complex_negative(self, grid):
        # negation runs on the float view: every byte of the complex
        # negative, signed zeros, infinities and NaN signs included, also for
        # a strided half and through stream_to_velocity
        rng = np.random.default_rng(5)
        wide = rng.standard_normal((64, 66)) + 1j * rng.standard_normal((64, 66))
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        wide.real[:5, :5] = special[:, None]
        wide.imag[:5, :5] = special[None, :]
        for half in (wide[:, :33].copy(), wide[:, ::2]):
            f = sp.SpectralField(grid, half)
            assert (-f).half.tobytes() == np.negative(half).tobytes()
            with np.errstate(invalid="ignore"):  # inf * 0 in the multipliers
                v = sp.stream_to_velocity(f)
                dx, dy = sp.derivative(f, "x"), sp.derivative(f, "y")
            assert v.u1.half.tobytes() == np.negative(dy.half).tobytes()
            assert v.u2.half.tobytes() == dx.half.tobytes()

    def test_shape_validation(self, grid):
        with pytest.raises(ValueError):
            sp.SpectralField.from_physical(grid, np.zeros((32, 32)))

    def test_transforms_exactly_hermitian(self, grid):
        # the forward transform makes its self-paired columns k2 = 0, n/2
        # Hermitian: every coefficient pair there matches bit for bit
        rng = np.random.default_rng(2)
        f = field(grid, rng.standard_normal((64, 64)))
        assert f.hermitian_defect() == 0.0
        assert sp.product(f, f).hermitian_defect() == 0.0
        ref = np.real(np.fft.ifft2(f.coeffs))
        assert np.max(np.abs(sp.SpectralField.from_coeffs(grid, f.coeffs).values() - ref)) <= \
            1e-14 * np.max(np.abs(ref))

    def test_half_storage(self, grid):
        # the stored array is the rfft2 half, read-only; coeffs is a cached
        # read-only view in the fft2 layout that from_coeffs inverts
        rng = np.random.default_rng(3)
        values = rng.standard_normal((64, 64))
        f = field(grid, values)
        assert f.half.shape == (64, 33) and not f.half.flags.writeable
        assert np.array_equal(f.half[:, 1:32], np.fft.rfft2(values)[:, 1:32])
        assert "coeffs" not in vars(f)
        assert f.coeffs is f.coeffs and not f.coeffs.flags.writeable
        assert np.array_equal(sp.SpectralField.from_coeffs(grid, f.coeffs).half, f.half)
        with pytest.raises(ValueError):
            sp.SpectralField(grid, f.coeffs)

    def test_hermitian_defect_reads_self_paired_columns(self, grid):
        # a non-Hermitian full array keeps its defect only in the columns
        # k2 = 0 and n/2, where both members of each mirror pair are stored
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        f = sp.SpectralField.from_coeffs(grid, raw)
        rows = (-np.arange(64)) % 64
        cols = raw[:, [0, 32]]
        expect = np.max(np.abs(cols - np.conj(cols[rows]))) / np.max(np.abs(raw[:, :33]))
        assert f.hermitian_defect() == expect > 0.1
        # the same departure in any other column is not stored at all
        sym = field(grid, rng.standard_normal((64, 64))).coeffs.copy()
        sym[5, 7] += 1.0
        sym[9, 50] -= 1.0j
        assert sp.SpectralField.from_coeffs(grid, sym).hermitian_defect() == 0.0
        sym[5, 0] += 1.0
        assert sp.SpectralField.from_coeffs(grid, sym).hermitian_defect() > 0.0

    def test_equality_is_identity(self, grid):
        from sbq.state import SimState
        f = field(grid, np.sin(grid.x))
        g = field(grid, np.sin(grid.x))
        assert (f == f) is True and (f == g) is False and f != g
        assert hash(f) == hash(f) and len({f, g, f}) == 2
        u = sp.VelocityField(f, g)
        assert (u == sp.VelocityField(f, g)) is True
        assert (u == sp.VelocityField(g, f)) is False
        state = SimState(f, g)
        assert (state == SimState(f, g)) is True
        assert (state == SimState(g, f)) is False
        assert hash(state) == hash(SimState(f, g))

    def test_arithmetic_grid_mismatch(self, grid):
        f = sp.SpectralField.zero(grid)
        g = sp.SpectralField.zero(sp.Grid(32))
        with pytest.raises(ValueError):
            f + g


class TestDerivative:
    def test_single_mode(self, grid):
        f = field(grid, np.sin(grid.x))
        d = sp.derivative(f, "x", 1)
        assert np.max(np.abs(d.values() - np.cos(grid.x))) < 1e-12

    def test_constant_derivative_is_zero(self, grid):
        c = field(grid, 4.2 * np.ones((64, 64)))
        for axis in ("x", "y"):
            for order in (1, 2, 3):
                assert sp.l2_norm(sp.derivative(c, axis, order)) == 0.0

    def test_matches_finite_difference_oracle(self, grid):
        # h = 2*pi/4096: refine by 64 and difference there
        rng = np.random.default_rng(2)
        f = sp.random_field(grid, rng, band=8)
        for axis in ("x", "y"):
            ours = sp.derivative(f, axis, 2).values()
            oracle = fd_derivative_on_refined(f, axis, 2, factor=64, accuracy=4)
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(ours - oracle)) <= 1e-6 * scale

    def test_cached_first_order_multiplier_bit_identical(self):
        # the grid builds the order-1 multipliers on first use; derivative
        # must give exactly what the per-call expression gave
        g = sp.Grid(48)
        assert "deriv_x" not in vars(g) and "deriv_y" not in vars(g)
        f = sp.random_field(g, np.random.default_rng(5), band=16)
        for axis, k in (("x", g.k1), ("y", g.k2)):
            mult = (1j * k.astype(np.float64)) ** 1
            if axis == "x":
                mult[g.n // 2, :] = 0.0
            else:
                mult[:, g.n // 2] = 0.0
            assert np.array_equal(sp.derivative(f, axis, 1).coeffs, f.coeffs * mult)
        assert g.deriv_x is g.deriv_x and not g.deriv_x.flags.writeable
        assert not g.deriv_y.flags.writeable

    def test_rejects_bad_arguments(self, grid):
        f = sp.SpectralField.zero(grid)
        with pytest.raises(ValueError):
            sp.derivative(f, "z", 1)
        with pytest.raises(ValueError):
            sp.derivative(f, "x", 0)


class TestMultipliers:
    def test_fractional_laplacian_eigenfunctions(self, grid):
        f = field(grid, np.sin(grid.x))
        assert np.allclose(sp.fractional_laplacian(f, 2.0).values(),
                           np.sin(grid.x), atol=1e-12)
        g = field(grid, np.sin(2 * grid.x))
        assert np.allclose(sp.fractional_laplacian(g, 1.0).values(),
                           2 * np.sin(2 * grid.x), atol=1e-12)
        h = field(grid, np.cos(grid.x) + np.cos(3 * grid.y))
        expect = np.cos(grid.x) + 27 * np.cos(3 * grid.y)
        assert np.allclose(sp.fractional_laplacian(h, 3.0).values(), expect,
                           atol=1e-10)

    def test_fractional_laplacian_rejects_negative(self, grid):
        with pytest.raises(ValueError):
            sp.fractional_laplacian(sp.SpectralField.zero(grid), -1.0)

    def test_fractional_laplacian_kills_mean(self, grid):
        c = field(grid, np.ones((64, 64)))
        assert sp.l2_norm(sp.fractional_laplacian(c, 0.0)) == 0.0

    def test_multiplier_composition(self, grid):
        rng = np.random.default_rng(3)
        f = sp.random_field(grid, rng, band=10)
        a = sp.fractional_laplacian(sp.fractional_laplacian(f, 0.7), 1.3)
        b = sp.fractional_laplacian(f, 2.0)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * np.max(np.abs(b.coeffs))

    def test_cached_fractional_multiplier_bit_identical(self):
        # |k|^s is built once per (grid, s), on first use, with the per-call
        # expression
        g = sp.Grid(40)
        f = sp.random_field(g, np.random.default_rng(7), band=13)
        mag = np.sqrt(g.ksq)
        for s in (0.0, 0.7, 2.0, 3.0):
            with np.errstate(divide="ignore"):
                mult = np.where(mag > 0, mag**s, 0.0)
            assert np.array_equal(sp.fractional_laplacian(f, s).coeffs, f.coeffs * mult)
        cached = sp._fractional_multiplier(g, 0.7)
        assert cached is sp._fractional_multiplier(g, 0.7) and not cached.flags.writeable

    def test_weights_not_built_at_setup(self):
        from sbq.noise import build_basis, default_family
        caches = (sp._fractional_multiplier, sp._sobolev_weight)
        before = [c.cache_info().misses for c in caches]
        g = sp.Grid(44)
        build_basis(default_family(g), g)
        assert [c.cache_info().misses for c in caches] == before

    def test_bessel_single_mode(self, grid):
        f = field(grid, np.sin(grid.x))
        assert np.allclose(sp.bessel_multiplier(f, 1.0).values(),
                           np.sqrt(2) * np.sin(grid.x), atol=1e-12)

    def test_bessel_identity_and_inverse(self, grid):
        rng = np.random.default_rng(4)
        f = sp.random_field(grid, rng, band=12)
        assert np.allclose(sp.bessel_multiplier(f, 0.0).coeffs, f.coeffs)
        back = sp.bessel_multiplier(sp.bessel_multiplier(f, 2.5), -2.5)
        assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))


class TestSobolevNorm:
    def test_single_mode_values(self, grid):
        f = field(grid, np.sin(grid.x))
        assert sp.sobolev_norm(f, 0.0) == pytest.approx(np.pi * np.sqrt(2), rel=1e-12)
        assert sp.sobolev_norm(f, 1.0) == pytest.approx(2 * np.pi, rel=1e-12)

    def test_matches_quadrature_oracle(self, grid):
        rng = np.random.default_rng(5)
        f = sp.random_field(grid, rng, band=6)
        ours = sp.sobolev_norm(f, 2.0)
        oracle = np.sqrt(quadrature_sobolev_sq(f, 2, factor=8))
        assert ours == pytest.approx(oracle, rel=1e-8)

    def test_cached_weight_bit_identical(self):
        # (1 + |k|^2)^s is built once per (grid, s), on first use, with the
        # per-call expression on the half spectrum, doubled on the columns
        # that stand for their mirror images too
        g = sp.Grid(40)
        f = sp.random_field(g, np.random.default_rng(8), band=13)
        pairs = np.where(np.isin(np.arange(21), (0, 20)), 1.0, 2.0)
        for s in (0.0, 1.0, 2.0, 2.5, 3.0):
            w = (1.0 + g.ksq) ** s
            assert np.array_equal(sp._sobolev_weight(g, s), w[:, :21] * pairs)
            total = float(np.sum(w * np.abs(f.coeffs) ** 2)) * (2.0 * np.pi) ** 2 / g.n**4
            assert sp.sobolev_norm(f, s) == pytest.approx(float(np.sqrt(total)), rel=1e-14)
        cached = sp._sobolev_weight(g, 2.0)
        assert cached is sp._sobolev_weight(g, 2.0) and not cached.flags.writeable

    @pytest.mark.parametrize("n", [32, 48, 128, 256])
    def test_half_weighted_sums_match_full_array_sums(self, n):
        # white-noise samples put energy on every column, k2 = 0 and n/2
        # included; the half sums agree with the fft2-layout sums to 1e-14
        g = sp.Grid(n)
        rng = np.random.default_rng(n + 1)
        c = (2.0 * np.pi) ** 2 / n**4
        for _ in range(5):
            f = field(g, rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0))
            h = field(g, rng.standard_normal((n, n)))
            for a in (f, h):
                for col in (0, n // 2):
                    assert np.max(np.abs(a.half[:, col])) > 0.0
            full_f = float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2) * c))
            full_h = float(np.sqrt(np.sum(np.abs(h.coeffs) ** 2) * c))
            full_inner = float(np.real(np.vdot(f.coeffs, h.coeffs))) * c
            assert abs(sp.inner(f, h) - full_inner) <= 1e-14 * full_f * full_h
            assert sp.l2_norm(f) == pytest.approx(full_f, rel=1e-14)
            for s in (0.5, 1.0, 2.0, 3.0):
                w = (1.0 + g.ksq) ** s
                full = float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2) * c))
                assert sp.sobolev_norm(f, s) == pytest.approx(full, rel=1e-14)

    def test_parseval(self, grid):
        rng = np.random.default_rng(6)
        for _ in range(5):
            f = sp.random_field(grid, rng, band=20)
            assert sp.lp_norm(f, 2.0) == pytest.approx(sp.l2_norm(f), rel=1e-12)


class TestBiotSavart:
    def test_zero_and_single_mode(self, grid):
        u = sp.biot_savart(sp.SpectralField.zero(grid))
        assert sp.l2_norm(u.u1) == 0.0 and sp.l2_norm(u.u2) == 0.0
        om = field(grid, np.cos(grid.x))
        u = sp.biot_savart(om)
        assert np.max(np.abs(u.u1.values())) < 1e-13
        assert np.allclose(u.u2.values(), np.sin(grid.x), atol=1e-12)

    def test_rejects_nonzero_mean(self, grid):
        with pytest.raises(ValueError):
            sp.biot_savart(field(grid, 1.0 + np.cos(grid.x)))

    def test_curl_inversion_and_divergence(self, grid):
        rng = np.random.default_rng(7)
        for _ in range(10):
            om = sp.random_field(grid, rng, band=15, zero_mean=True)
            u = sp.biot_savart(om)
            curl = sp.derivative(u.u2, "x") - sp.derivative(u.u1, "y")
            norm = sp.l2_norm(om)
            assert sp.l2_norm(curl - om) <= 1e-12 * norm
            div = u.divergence()
            assert sp.l2_norm(div) <= 1e-10 * np.hypot(sp.l2_norm(u.u1),
                                                       sp.l2_norm(u.u2))

    def test_sobolev_bound_sharp_sqrt2(self, grid):
        rng = np.random.default_rng(8)
        for k in (0, 1, 2):
            for _ in range(5):
                om = sp.random_field(grid, rng, band=12, zero_mean=True)
                u = sp.biot_savart(om)
                ratio = sp.velocity_sobolev_norm(u, k + 1.0) / sp.sobolev_norm(om, float(k))
                assert ratio <= np.sqrt(2) + 1e-9
        # equality is attained on the |k| = 1 shell
        om = field(grid, np.cos(grid.x))
        u = sp.biot_savart(om)
        assert sp.velocity_sobolev_norm(u, 1.0) / sp.sobolev_norm(om, 0.0) == \
            pytest.approx(np.sqrt(2), rel=1e-12)


class TestMultiplierKernels:
    """Biot-Savart as two multiplies and the 2/3 rule as two slice fills
    against the division and masked forms they replace."""

    SIZES = [8, 12, 30, 32, 48, 64, 96, 128, 256]

    @pytest.mark.parametrize("n", SIZES)
    def test_velocity_equals_division_form(self, n):
        g = sp.Grid(n)
        rng = np.random.default_rng(n)
        shape = (3, n, n // 2 + 1)  # every mode, the mean and the Nyquist lines too
        omega = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        omega[1] = 0.0  # an all-zero plane
        # equal up to the signs of zeros
        assert np.array_equal(sp._velocity_half(omega, g), velocity_half_reference(omega, g))
        for plane in omega:
            assert np.array_equal(sp._velocity_half(plane, g),
                                  velocity_half_reference(plane, g))

    @pytest.mark.parametrize("n", SIZES)
    def test_slice_fill_equals_masked_copy(self, n):
        g = sp.Grid(n)
        rng = np.random.default_rng(n)
        shape = (2, 3, n, n // 2 + 1)
        half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = half.copy()
        np.copyto(want, 0.0, where=g._drop_half)
        sp._zero_dropped(half, g)
        assert half.tobytes() == want.tobytes()


class TestDealiasedProduct:
    def test_identity_factor(self, grid):
        f = field(grid, np.sin(grid.x))
        one = field(grid, np.ones((64, 64)))
        assert np.allclose(sp.product(f, one).values(), np.sin(grid.x),
                           atol=1e-12)

    def test_product_to_sum(self):
        for n in (8, 16, 64):
            g = sp.Grid(n)
            f = sp.SpectralField.from_physical(g, np.sin(g.x))
            p = sp.product(f, f)
            assert np.allclose(p.values(), (1 - np.cos(2 * g.x)) / 2, atol=1e-12)

    def test_matches_dense_quadrature_product(self, grid):
        # bandwidths b_f + b_g <= n/3: the masked product is the exact product
        rng = np.random.default_rng(9)
        f = sp.random_field(grid, rng, band=10)
        g = sp.random_field(grid, rng, band=11)
        ours = sp.product(f, g).values()
        oracle = fine_values(f, 4) * fine_values(g, 4)
        assert np.max(np.abs(ours - oracle[::4, ::4])) <= 1e-12 * np.max(np.abs(oracle))

    def test_bilinear_and_symmetric(self, grid):
        rng = np.random.default_rng(10)
        f = sp.random_field(grid, rng, band=15)
        g = sp.random_field(grid, rng, band=15)
        h = sp.random_field(grid, rng, band=15)
        fg = sp.product(f, g)
        gf = sp.product(g, f)
        assert np.max(np.abs(fg.coeffs - gf.coeffs)) <= 1e-12
        lin = sp.product(f + 2.0 * h, g)
        split = fg + 2.0 * sp.product(h, g)
        assert np.max(np.abs(lin.coeffs - split.coeffs)) <= \
            1e-12 * max(1.0, np.max(np.abs(split.coeffs)))

    def test_grid_mismatch_rejected(self, grid):
        with pytest.raises(ValueError):
            sp.product(sp.SpectralField.zero(grid),
                                 sp.SpectralField.zero(sp.Grid(32)))

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_matches_fft2_reference(self, n):
        # full-band inputs: the half-spectrum kernel moves only round-off
        g = sp.Grid(n)
        rng = np.random.default_rng(n + 7)
        f = sp.random_field(g, rng, band=n // 2 - 1)
        h = sp.random_field(g, rng, band=n // 2 - 1)
        ref = product_fft2_reference(f, h)
        ours = sp.product(f, h)
        assert np.max(np.abs(ours.coeffs - ref.coeffs)) <= \
            1e-14 * np.max(np.abs(ref.coeffs))
        assert ours.hermitian_defect() == 0.0

    def test_high_modes_zeroed(self, grid):
        rng = np.random.default_rng(11)
        f = sp.random_field(grid, rng, band=30)
        p = sp.product(f, f)
        outside = ~grid.dealias_keep
        assert np.max(np.abs(p.coeffs[outside])) == 0.0


class TestPrunedTransforms:
    """Under the 2/3 rule the transforms skip the columns k2 > n/3, which
    are zero: the samples and coefficients are those of the full
    ``irfft2``/``rfft2`` byte for byte.  Planes inside the ball (an all-zero
    one among them) are what the states' pruned gradient samples rest on."""

    @pytest.mark.parametrize("n", [8, 10, 16, 30, 32, 48, 64, 96, 128, 256])
    @pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 3), (6,)])
    def test_byte_equal_to_full_transforms(self, n, lead):
        g = sp.Grid(n)
        rng = np.random.default_rng(n)
        shape = (*lead, n, n // 2 + 1)
        half = np.where(g._drop_half, 0.0,
                        rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        if lead:
            half[(0,) * len(lead)] = 0.0
        assert sp._in_ball(half, g)
        full = np.fft.irfft2(half, s=(n, n))
        for out in (None, np.empty((*lead, n, n))):
            got = sp._to_physical(half.copy(), g, dealias=True, out=out)
            assert got.tobytes() == full.tobytes()
        values = rng.standard_normal((*lead, n, n))
        want = np.where(g._drop_half, 0.0, np.fft.rfft2(values))
        for j in (0, n // 2):
            col = want[..., j]
            want[..., j] = 0.5 * (col + np.conj(col[..., g._mirror_rows]))
        for out in (None, np.empty(shape, dtype=np.complex128)):
            got = sp._to_fourier(values, g, dealias=True, out=out)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [8, 30, 64])
    def test_in_ball_scan(self, n):
        g = sp.Grid(n)
        half = np.zeros((2, n, n // 2 + 1), dtype=np.complex128)
        half[1, n // 3, n // 3] = half[1, -(n // 3), 0] = 1.0  # corners of the ball
        assert sp._in_ball(half, g)
        for mode in ((n // 3 + 1, 0), (-(n // 3) - 1, n // 3), (0, n // 3 + 1), (0, n // 2)):
            for value in (1e-300, np.nan):
                outside = half.copy()
                outside[0, mode[0], mode[1]] = value
                assert not sp._in_ball(outside, g)
        half[0, 0, 0] = np.nan  # a kept mode: the scan reads only the removed ones
        assert sp._in_ball(half, g)


class TestRandomField:
    """The half-only draw equals the full-grid draw of the oracles byte for
    byte, and leaves the generator in the same state."""

    @pytest.mark.parametrize("n", [8, 32, 64, 128])
    def test_plain_band_matches_reference_draw(self, n):
        g = sp.Grid(n)
        for band in sorted({0, 1, n // 6, n // 3, n // 2 - 1}):
            for decay, zero_mean, amplitude in ((0.0, False, 1.0), (0.0, True, 2.5),
                                                (1.5, False, 3.0), (4.1, True, 0.7),
                                                (0.0, False, 0.0)):
                ours_rng, ref_rng = np.random.default_rng(band), np.random.default_rng(band)
                ours = sp.random_field(g, ours_rng, band, amplitude, decay, zero_mean)
                ref = random_field_reference(g, ref_rng, band, amplitude, decay, zero_mean)
                assert ours.half.tobytes() == ref.half.tobytes()
                assert ours_rng.random() == ref_rng.random()

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_hs_draw_matches_reference_draw(self, n):
        g = sp.Grid(n)
        for s, band, zero_mean in ((1.0, None, True), (2.5, None, False), (3.0, 9, True)):
            ours = random_hs_field(g, s, np.random.default_rng(n), 1.5, band, zero_mean)
            ref = hs_field_reference(g, s, np.random.default_rng(n), 1.5, band, zero_mean)
            assert ours.half.tobytes() == ref.half.tobytes()

    def test_rejects_band_beyond_grid(self, grid):
        with pytest.raises(ValueError):
            sp.random_field(grid, np.random.default_rng(0), grid.n // 2)


def _write_workspace(user):
    sp._workspace(user, (4, 4), np.float64)[...] = 2.0


class TestWorkspace:
    def test_one_buffer_per_user_grown_to_the_largest_shape(self):
        small = sp._workspace("test-grow", (2, 3))
        large = sp._workspace("test-grow", (4, 5))
        again = sp._workspace("test-grow", (3, 2))
        assert again.shape == (3, 2) and again.flags.c_contiguous
        assert np.shares_memory(again, large) and not np.shares_memory(small, large)
        assert not np.shares_memory(large, sp._workspace("test-other", (4, 5)))

    def test_one_cached_view_per_user_shape_and_dtype(self):
        view = sp._workspace("test-views", (3, 4))
        assert sp._workspace("test-views", (3, 4)) is view
        other = sp._workspace("test-views", (4, 3))  # two shapes share one buffer
        assert other is not view and np.shares_memory(other, view)
        assert not np.shares_memory(view, sp._workspace("test-views", (3, 4), np.float64))

    def test_regrowing_drops_every_view_of_the_old_buffer(self):
        small = sp._workspace("test-regrow", (2, 3))
        other = sp._workspace("test-regrow", (3, 2))
        floats = sp._workspace("test-regrow", (2, 3), np.float64)
        large = sp._workspace("test-regrow", (4, 5))
        assert not np.shares_memory(small, large)
        for shape in ((2, 3), (3, 2)):
            again = sp._workspace("test-regrow", shape)
            assert np.shares_memory(again, large)
            assert not (np.shares_memory(again, small) or np.shares_memory(again, other))
        kept = {key: view for key, view in sp._scratch.views.items() if key[0] == "test-regrow"}
        assert len(kept) == 4
        for (_, _, dtype), view in kept.items():
            if np.dtype(dtype) == np.complex128:
                assert np.shares_memory(view, large)
        # the other dtype's buffer did not grow: its view stays
        assert sp._workspace("test-regrow", (2, 3), np.float64) is floats

    def test_a_forked_child_writes_its_own_copy(self):
        # pool workers are forked: the buffers are private maps, never shared
        buf = sp._workspace("test-fork", (4, 4), np.float64)
        buf[...] = 1.0
        child = multiprocessing.get_context("fork").Process(
            target=_write_workspace, args=("test-fork",))
        child.start()
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
        assert np.all(sp._workspace("test-fork", (4, 4), np.float64) == 1.0)


class TestPointwiseNorms:
    def test_linf_single_mode(self, grid):
        f = field(grid, np.sin(grid.x))
        assert sp.linf_norm(f) == pytest.approx(1.0, rel=1e-12)

    def test_constant_norms(self, grid):
        c = field(grid, 3.0 * np.ones((64, 64)))
        assert sp.linf_norm(c) == pytest.approx(3.0)
        for p in (2.0, 4.0):
            assert sp.lp_norm(c, p) == pytest.approx(3.0 * (4 * np.pi**2) ** (1 / p),
                                                     rel=1e-12)

    def test_lp_rejects_small_p(self, grid):
        with pytest.raises(ValueError):
            sp.lp_norm(sp.SpectralField.zero(grid), 1.5)

    def test_linf_oversampling_agreement(self):
        # collocation undershoot scales like (band * spacing)^2 / 2, so the
        # 1% agreement needs the grid fine relative to the band
        g = sp.Grid(256)
        rng = np.random.default_rng(12)
        for _ in range(5):
            f = sp.random_field(g, rng, band=8)
            coarse = sp.linf_norm(f)
            fine = sp.linf_norm(f, oversample=4)
            assert abs(coarse - fine) <= 0.01 * fine


class TestResample:
    def test_subsample_round_trip(self, grid):
        rng = np.random.default_rng(13)
        f = sp.random_field(grid, rng, band=25)
        fine = sp.resample(f, 256)
        assert np.max(np.abs(fine.values()[::4, ::4] - f.values())) <= 1e-12
        assert fine.hermitian_defect() <= 1e-12
        assert sp.l2_norm(fine) == pytest.approx(sp.l2_norm(f), rel=1e-12)

    def test_rejects_downsample(self, grid):
        with pytest.raises(ValueError):
            sp.resample(sp.SpectralField.zero(grid), 32)
