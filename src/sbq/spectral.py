"""Fourier-space scalar fields on the periodic square [-pi, pi]^2 and the
multiplier calculus built on them.

Conventions used throughout the package:

* A field is real, so its coefficients are Hermitian,
  ``coeff(-k) == conj(coeff(k))``, and :class:`SpectralField` stores only
  its half spectrum ``half``, the ``rfft2`` layout (n, n/2 + 1): the columns
  ``k2 = 0..n/2`` of the numpy ``fft2`` layout, integer wavenumbers
  ``fftfreq(n) * n``, no factor on the forward transform and ``1/n**2`` on
  the inverse.  A column ``0 < k2 < n/2`` stands for itself and its mirror
  image.  The two *self-paired* columns ``k2 = 0`` and ``n/2`` hold both
  members of each mirror pair; the forward transform replaces them by their
  Hermitian parts and every operation keeps them exactly Hermitian, bit for
  bit.  :meth:`SpectralField.hermitian_defect` measures their departure, the
  only one half storage can hold.  The ``fft2`` layout is the read-only view
  :attr:`SpectralField.coeffs`, completed by the mirror on first use; only
  tests and the shifted Ito diagonals of unpaired noise families read it.
* Multipliers are built once per :class:`Grid` on the half spectrum.  Every
  transform is a batched half-spectrum transform, ``irfft2`` and ``rfft2``:
  :meth:`SpectralField.values`, :meth:`SpectralField.from_physical`,
  :func:`product`, :func:`sbq.operators.lie_derivative` and the stepper
  share this one pair, so the stepper's transport terms equal the public
  operators' bit for bit.  Under the 2/3 rule both run as their two 1-D
  passes pruned to the kept columns k2 <= n/3 (the others are zero): the
  inverse's ``ifft`` over the rows, and the forward's ``fft`` after its
  ``rfft`` over the rows, with the bits of the full transforms.  Planes
  already inside the 2/3 ball (:func:`_in_ball`) take the pruned inverse
  for their plain samples too, the bits of ``irfft2``, and skip the zero
  fill when the caller knows them inside (``in_ball``).  The stepper's and
  the operator battery's buffers come from a per-thread workspace
  (:func:`_workspace`), which hands out one cached view per user, shape
  and dtype.
* A real multiplier that scales complex arrays on a hot path (1/|k|^2, the
  Ito multiplier, the hyper decay) is stored complex with zero imaginary
  parts, in a private map of its own (:func:`_mapped`): numpy casts a real
  operand through a buffer on every call, and the cast gives the same
  bits.  Negation runs on the float view (:meth:`SpectralField.__neg__`),
  the bytes of the complex negative.
* All L2-type norms and inner products include the ``(2*pi)**2`` measure of
  the torus, so e.g. ``||sin x||_L2 = pi * sqrt(2)``; they sum over the half
  with weight 2 on the columns ``0 < k2 < n/2`` and 1 on the self-paired ones.
* Every quadratic nonlinearity is a physical-space product under the 2/3
  rule (:func:`product`, the first-order kernel of :mod:`sbq.operators`,
  the stepper's transports): modes with ``max(|k1|, |k2|) > n/3`` are
  zeroed in both inputs and in the output.
  This also removes the Nyquist modes ``|k| = n/2`` before any dynamics
  touches them, and it is what makes the discrete transport exactly
  skew-adjoint.
* Sup and L^p norms are collocation-grid approximations; pass ``oversample``
  to evaluate on a zero-padded finer grid when the default is too coarse.

Fields are immutable values: every operation returns a new field, so the
functions here are safe to call concurrently from multiple threads (the
workspace is per thread and never escapes into a field).
"""

from __future__ import annotations

import math
import mmap
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Grid",
    "SpectralField",
    "VelocityField",
    "derivative",
    "fractional_laplacian",
    "bessel_multiplier",
    "sobolev_norm",
    "velocity_sobolev_norm",
    "biot_savart",
    "stream_to_velocity",
    "product",
    "inner",
    "l2_norm",
    "linf_norm",
    "lp_norm",
    "resample",
    "random_field",
    "random_divergence_free",
]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class Grid:
    """Uniform n x n collocation grid on the torus [-pi, pi]^2.

    Holds the wavenumber meshes ``k1``, ``k2``, ``ksq`` and the 2/3-rule mask
    ``dealias_keep`` in the ``fft2`` layout, the physical coordinates ``x``,
    ``y`` and the half-spectrum multipliers (``deriv_x``, ``deriv_y``, ...),
    each built on first use, cached and read-only: a grid that only
    resamples or transforms builds none of them.  There is one grid per
    ``n``: ``Grid(n)`` returns the shared instance (built on first use, also
    after a pickle round trip or in a forked child), so grids compare and
    hash by identity and each array is built once per process.
    """

    _instances: dict = {}

    def __new__(cls, n: int):
        grid = cls._instances.get(n)
        if grid is None:
            if n < 8 or n % 2 != 0:
                raise ValueError(f"grid size must be even and >= 8, got {n}")
            grid = super().__new__(cls)
            grid.n = n
            grid.spacing = 2.0 * np.pi / n
            grid.k_max = n // 2 - 1
            grid._nyquist = n // 2  # index of the Nyquist line along either axis
            # the 2/3 rule keeps the half-spectrum columns k2 <= n/3 and,
            # within them, the rows |k1| <= n/3: it drops the rows in between
            grid._kept_cols = n // 3 + 1
            grid._dropped_rows = slice(n // 3 + 1, n - n // 3)
            grid = cls._instances.setdefault(n, grid)  # one winner if threads race
        return grid

    @cached_property
    def k1(self) -> np.ndarray:
        """Integer wavenumber k1 of each mode, (n, n): 0, 1, .., n/2 - 1,
        -n/2, .., -1 down the rows."""
        k = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        return _read_only(np.repeat(k[:, None], self.n, axis=1))

    @cached_property
    def k2(self) -> np.ndarray:
        """Integer wavenumber k2 of each mode, (n, n), along the columns."""
        return _read_only(self.k1.T.copy())

    @cached_property
    def ksq(self) -> np.ndarray:
        """|k|^2 of each mode, (n, n), float."""
        return _read_only((self.k1**2 + self.k2**2).astype(np.float64))

    @cached_property
    def dealias_keep(self) -> np.ndarray:
        """The modes max(|k1|, |k2|) <= n/3 the 2/3 rule keeps, (n, n)."""
        return _read_only(np.maximum(np.abs(self.k1), np.abs(self.k2)) <= self.n / 3.0)

    @cached_property
    def x(self) -> np.ndarray:
        """Coordinate x_i = -pi + i * spacing of each collocation point, (n, n)."""
        coord = -np.pi + self.spacing * np.arange(self.n)
        return _read_only(np.repeat(coord[:, None], self.n, axis=1))

    @cached_property
    def y(self) -> np.ndarray:
        """Coordinate y_j of each collocation point, (n, n)."""
        return _read_only(self.x.T.copy())

    def __reduce__(self):
        return Grid, (self.n,)

    @cached_property
    def deriv_x(self) -> np.ndarray:
        """Half-spectrum multiplier of d_x: i * k1 with the Nyquist row zeroed."""
        return self._deriv_half[0]

    @cached_property
    def deriv_y(self) -> np.ndarray:
        """Half-spectrum multiplier of d_y: i * k2 with the Nyquist column zeroed."""
        return self._deriv_half[1]

    @cached_property
    def _deriv_half(self) -> np.ndarray:
        """(d_x, d_y) multipliers on the half spectrum, stacked (2, n, n/2 + 1)."""
        return _read_only(np.stack([_derivative_multiplier(self, axis, 1)
                                    for axis in ("x", "y")]))

    @cached_property
    def _perp_half(self) -> np.ndarray:
        """(d_y, -d_x) multipliers on the half spectrum, stacked (2, n, n/2 + 1):
        the perpendicular gradient that maps -psi to the velocity."""
        dx, dy = self._deriv_half
        return _read_only(np.stack((dy, -dx)))

    @cached_property
    def _ksq_half(self) -> np.ndarray:
        """|k|^2 on the half spectrum."""
        return _read_only(self.ksq[:, :self._nyquist + 1].copy())

    @cached_property
    def _inv_ksq_half(self) -> np.ndarray:
        """1 / |k|^2 on the half spectrum with the k = 0 entry 0, stored
        complex (zero imaginary parts): it only scales complex arrays, which
        then multiply without casting it on every call, to the same bits."""
        inv = np.zeros_like(self._ksq_half)
        np.divide(1.0, self._ksq_half, out=inv, where=self._ksq_half > 0)
        return _mapped(inv.astype(np.complex128))

    @cached_property
    def _sup_weights(self) -> np.ndarray:
        """Weights (2, n, n + 2) on the float view of half spectra: the
        largest |multiplier| of the four planes of grad u over omega,
        m^2 / |k|^2 <= 1 with m = max(|k1|, |k2|) (Nyquist lines zeroed, as
        in the derivatives), and of the two of grad theta over theta, m;
        times c_k / n**2, c_k = 2 on the columns 0 < k2 < n/2 and 1 on the
        self-paired ones; each repeated for the real and the imaginary part.
        Dotted with |re| + |im| of a change of (omega, theta), they bound the
        change of every gradient sample (:func:`sbq.integrator._certified`)."""
        m = np.abs(self._deriv_half).max(axis=0)
        c = np.full(self._nyquist + 1, 2.0)
        c[[0, -1]] = 1.0
        weights = np.stack((m * m * self._inv_ksq_half.real, m)) * (c / self.n**2)
        return _mapped(np.repeat(weights, 2, axis=-1))

    @cached_property
    def _drop_half(self) -> np.ndarray:
        """Half-spectrum modes the 2/3 rule removes."""
        return _read_only(~self.dealias_keep[:, :self._nyquist + 1])

    @cached_property
    def _mirror_rows(self) -> np.ndarray:
        """Row index of -k1 for each row k1."""
        return _read_only((-np.arange(self.n)) % self.n)

    def __repr__(self):
        return f"Grid(n={self.n})"


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Real scalar field stored as its half spectrum of Fourier coefficients.

    ``half`` is complex, shape (n, n/2 + 1), read-only (the layout is in the
    module docstring).  Fields compare and hash by identity.

    Physical samples are cached (read-only): a field built from physical
    values returns exactly those values, which is what makes snapshot
    round trips bit-exact.
    """

    grid: Grid
    half: np.ndarray
    _values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.half.shape != (self.grid.n, self.grid.n // 2 + 1):
            raise ValueError(f"expected a half spectrum, got shape {self.half.shape}")
        self.half.setflags(write=False)

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (grid.n, grid.n):
            raise ValueError(f"expected shape {(grid.n, grid.n)}, got {values.shape}")
        if values.flags.writeable:
            values = _read_only(values.copy())
        return cls(grid, _to_fourier(values, grid), values)

    @classmethod
    def from_coeffs(cls, grid: Grid, coeffs: np.ndarray) -> "SpectralField":
        """The field of ``fft2``-layout coefficients (n, n).  Only the columns
        k2 = 0..n/2 are read; Hermitian symmetry implies the rest."""
        coeffs = np.asarray(coeffs)
        if coeffs.shape != (grid.n, grid.n):
            raise ValueError(f"expected shape {(grid.n, grid.n)}, got {coeffs.shape}")
        return cls(grid, coeffs[:, :grid.n // 2 + 1].astype(np.complex128))

    @classmethod
    def zero(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros((grid.n, grid.n // 2 + 1), dtype=np.complex128))

    @cached_property
    def coeffs(self) -> np.ndarray:
        """The ``fft2``-layout view (n, n), read-only, mirror-completed on first use."""
        return _full_layout(self.half, self.grid)

    def values(self) -> np.ndarray:
        """Physical-space samples on the collocation grid (read-only array)."""
        if self._values is None:
            object.__setattr__(self, "_values",
                               _read_only(_to_physical(self.half, self.grid)))
        return self._values

    def mean(self) -> float:
        """Mean value over the torus (the k = 0 coefficient / n^2)."""
        return float(np.real(self.half[0, 0])) / self.grid.n**2

    def hermitian_defect(self) -> float:
        """Relative departure from coeff(-k) == conj(coeff(k)) on the
        self-paired columns k2 = 0 and n/2, which store both of each pair."""
        scale = np.max(np.abs(self.half))
        if scale == 0.0:
            return 0.0
        cols = self.half[:, ::self.grid.n // 2]
        flipped = np.conj(cols[self.grid._mirror_rows])
        return float(np.max(np.abs(cols - flipped)) / scale)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.half).all())

    # linear-space arithmetic; grids must match
    def _check(self, other: "SpectralField"):
        if self.grid != other.grid:
            raise ValueError("grid mismatch")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.half + other.half)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.half - other.half)

    def __neg__(self) -> "SpectralField":
        # on the float view: the bytes of the complex negative, signed zeros
        # and NaN signs included, without numpy's slow complex ufunc
        parts = np.ascontiguousarray(self.half).view(np.float64)
        return SpectralField(self.grid, np.negative(parts).view(np.complex128))

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.half * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class VelocityField:
    """Pair of scalar fields (u1, u2).

    Divergence-free by construction when produced by :func:`biot_savart` or
    :func:`stream_to_velocity`; holds arbitrary vector fields otherwise.
    """

    u1: SpectralField
    u2: SpectralField

    def __post_init__(self):
        if self.u1.grid != self.u2.grid:
            raise ValueError("velocity components on different grids")

    @property
    def grid(self) -> Grid:
        return self.u1.grid

    def divergence(self) -> SpectralField:
        return derivative(self.u1, "x", 1) + derivative(self.u2, "y", 1)

    def is_finite(self) -> bool:
        return self.u1.is_finite() and self.u2.is_finite()

    @cached_property
    def _dealiased_samples(self) -> np.ndarray:
        """Physical samples of (u1, u2) under the 2/3 rule, stacked
        (2, n, n), read-only; the coefficient planes of the transport
        L_u f in :func:`sbq.operators.lie_derivative`."""
        half = np.stack((self.u1.half, self.u2.half))
        return _read_only(_to_physical(half, self.grid, dealias=True))


def derivative(f: SpectralField, axis: str, order: int = 1) -> SpectralField:
    """Spectral partial derivative: multiply by (i * k_axis)^order.

    The unpaired Nyquist mode is zeroed for odd orders so derivatives of real
    fields stay real.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    if order < 1:
        raise ValueError("derivative order must be a positive integer")
    g = f.grid
    if order == 1:
        mult = g.deriv_x if axis == "x" else g.deriv_y
    else:
        mult = _derivative_multiplier(g, axis, order)
    return SpectralField(g, f.half * mult)


def _derivative_multiplier(g: Grid, axis: str, order: int) -> np.ndarray:
    """(i * k_axis)^order on the half spectrum, Nyquist line zeroed if odd."""
    k = (g.k1 if axis == "x" else g.k2)[:, :g._nyquist + 1]
    mult = (1j * k.astype(np.float64)) ** order
    if order % 2 == 1:
        if axis == "x":
            mult[g._nyquist, :] = 0.0
        else:
            mult[:, g._nyquist] = 0.0
    return _read_only(mult)


def fractional_laplacian(f: SpectralField, s: float) -> SpectralField:
    """Apply |k|^s; the k = 0 mode maps to 0.  Requires s >= 0."""
    if s < 0:
        raise ValueError(f"fractional Laplacian exponent must be >= 0, got {s}")
    return SpectralField(f.grid, f.half * _fractional_multiplier(f.grid, s))


@lru_cache(maxsize=16)
def _fractional_multiplier(g: Grid, s: float) -> np.ndarray:
    """Read-only |k|^s on the half spectrum with the k = 0 entry 0, built once
    per (grid, s)."""
    ksq = g._ksq_half
    with np.errstate(divide="ignore"):
        return _read_only(np.where(ksq > 0, np.sqrt(ksq) ** s, 0.0))


def bessel_multiplier(f: SpectralField, s: float) -> SpectralField:
    """Apply (1 + |k|^2)^(s/2); s may be negative."""
    g = f.grid
    return SpectralField(g, f.half * (1.0 + g._ksq_half) ** (s / 2.0))


def inner(f: SpectralField, g: SpectralField) -> float:
    """L2 inner product over the torus, integral of f*g dV."""
    f._check(g)
    return float(_inner_half(f.half, g.half))


def _inner_half(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L2 inner products of half-spectrum planes (..., n, n/2 + 1), one per
    leading index; row-wise ``vecdot``, so each equals its plane's own."""
    lead, n = a.shape[:-2], a.shape[-2]
    # every column but the self-paired k2 = 0, n/2 stands for its mirror too;
    # vecdot, not the BLAS vdot: no thread start-up stalls of an unpinned BLAS
    dot = (2.0 * np.vecdot(a.reshape(*lead, -1), b.reshape(*lead, -1))
           - np.vecdot(a[..., ::n // 2].reshape(*lead, -1),
                       b[..., ::n // 2].reshape(*lead, -1)))
    return np.real(dot) * (2.0 * np.pi) ** 2 / n**4


def l2_norm(f: SpectralField) -> float:
    return float(np.sqrt(max(inner(f, f), 0.0)))


def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm: L2 norm of (I - Lap)^(s/2) f, via Parseval."""
    g = f.grid
    w = _sobolev_weight(g, s)
    total = float(np.sum(w * np.abs(f.half) ** 2)) * (2.0 * np.pi) ** 2 / g.n**4
    return float(np.sqrt(total))


@lru_cache(maxsize=16)
def _sobolev_weight(g: Grid, s: float) -> np.ndarray:
    """Read-only (1 + |k|^2)^s on the half spectrum, doubled on the columns
    that stand for their mirror images too; built once per (grid, s)."""
    w = 2.0 * (1.0 + g._ksq_half) ** s
    w[:, ::g.n // 2] *= 0.5
    return _read_only(w)


def velocity_sobolev_norm(v: VelocityField, s: float) -> float:
    """Component-wise combined H^s norm sqrt(||u1||^2 + ||u2||^2)."""
    return float(np.hypot(sobolev_norm(v.u1, s), sobolev_norm(v.u2, s)))


def biot_savart(omega: SpectralField) -> VelocityField:
    """Reconstruct the divergence-free velocity from vorticity.

    Solves psi_hat = -omega_hat / |k|^2 (zero mode dropped) and returns
    u = (-d_y psi, d_x psi), so that d_x u2 - d_y u1 == omega on all
    non-Nyquist modes and div u == 0 exactly in Fourier space.

    Rejects vorticity whose mean exceeds a round-off tolerance: no periodic
    velocity field has nonzero mean curl on the torus.
    """
    g = omega.grid
    mean = abs(omega.half[0, 0]) / g.n**2
    if mean > 1e-12 * max(1.0, l2_norm(omega)):
        raise ValueError(f"vorticity must have zero mean, got mean {mean:.3e}")
    u = _velocity_half(omega.half, g)
    return VelocityField(SpectralField(g, u[0]), SpectralField(g, u[1]))


def _velocity_half(omega: np.ndarray, grid: Grid,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Half spectra (..., 2, n, n/2 + 1) of the Biot-Savart velocities of
    vorticity half spectra (..., n, n/2 + 1): psi = -omega / |k|^2 (zero mode
    dropped), u = (-d_y psi, d_x psi), as :func:`stream_to_velocity`.

    Two multiplies by the grid's multipliers: q = omega / |k|^2, then
    u = q * (d_y, -d_x).  The bits equal those of the complex division
    -omega / |k|^2, which numpy runs as a multiply by 1 / |k|^2, up to the
    signs of zeros."""
    q = np.multiply(omega, grid._inv_ksq_half, out=_workspace("psi", omega.shape))
    q[..., 0, 0] = 0.0  # a non-finite mean must not reach the velocity
    return np.multiply(q[..., None, :, :], grid._perp_half, out=out)


def stream_to_velocity(psi: SpectralField) -> VelocityField:
    """Perpendicular gradient of the stream function: (-d_y psi, d_x psi)."""
    return VelocityField(-derivative(psi, "y", 1), derivative(psi, "x", 1))


def product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise physical-space product under the 2/3 rule.

    The rule is applied to both inputs and to the output, which makes the
    product alias-free for inputs inside the retained ball.
    """
    f._check(g)
    return SpectralField(f.grid, _product_half(f.half, g.half, f.grid))


def _product_half(a: np.ndarray, b: np.ndarray, grid: Grid,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Half spectra (..., n, n/2 + 1) of the 2/3-rule products of half
    spectra ``a`` and ``b`` (..., n, n/2 + 1), one row per leading index:
    one batched inverse of both in this thread's workspace, one batched
    forward into ``out`` or a fresh array."""
    lead, n = a.shape[:-2], grid.n
    half = np.stack((a, b), axis=-3,
                    out=_workspace("transform-half", (*lead, 2, n, n // 2 + 1)))
    phys = _to_physical(half, grid, dealias=True,
                        out=_workspace("transform-phys", (*lead, 2, n, n), np.float64))
    prod = np.multiply(phys[..., 0, :, :], phys[..., 1, :, :], out=phys[..., 0, :, :])
    return _to_fourier(prod, grid, dealias=True, out=out)


# ----------------------------------------------------------------------------
# the transform kernel: every physical <-> Fourier transform goes through
# these two functions, one batched transform per direction (one numpy.fft
# call, or two passes under the 2/3 rule or into a caller's buffer), plus
# the per-thread workspace the stepper and the operator battery hand them


def _gradient_half(half: np.ndarray, grid: Grid,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Half-spectrum coefficients (..., 2, n, n/2 + 1) of (d_x f, d_y f) for
    half spectra (..., n, n/2 + 1); each plane equals the ``half`` of
    :func:`derivative`'s output."""
    return np.multiply(half[..., None, :, :], grid._deriv_half, out=out)


def _to_physical(half: np.ndarray, grid: Grid, dealias: bool = False,
                 out: np.ndarray | None = None, in_ball: bool = False) -> np.ndarray:
    """Physical samples of half-spectrum planes (..., n, n/2 + 1), one
    batched inverse for the stack.

    ``dealias`` first zeroes the modes the 2/3 rule removes, in place, and
    then runs the inverse as its own two passes with the bits of ``irfft2``:
    ``ifft`` over axis -2, in place and only on the columns k2 <= n/3 that
    the rule keeps (the others are zero and stay zero), then ``irfft`` over
    the rows.  ``in_ball`` says the planes already lie inside the 2/3 ball
    (:func:`_in_ball`): the same pruned passes run without the zero fill.
    ``half`` is overwritten: pass an array the caller owns.  With ``out``
    (float, (..., n, n)) the samples are written there, by the same two
    passes (``irfft2`` drops ``out=`` on numpy 2.4).
    """
    pruned = dealias or in_ball
    if not (pruned or out is not None):
        return np.fft.irfft2(half, s=(grid.n, grid.n))
    if dealias and not in_ball:
        _zero_dropped(half, grid)
    cols = half[..., :grid._kept_cols] if pruned else half
    np.fft.ifft(cols, axis=-2, out=cols)
    return np.fft.irfft(half, n=grid.n, axis=-1, out=out)


def _to_fourier(values: np.ndarray, grid: Grid, dealias: bool = False,
                out: np.ndarray | None = None) -> np.ndarray:
    """Half-spectrum coefficients (..., n, n/2 + 1) of real planes
    (..., n, n): one batched forward for the stack, into ``out`` when given.

    Without ``dealias`` it is one ``rfft2`` call.  Under the 2/3 rule it runs
    as the two passes of ``rfft2``, ``rfft`` over the rows and then ``fft``
    over axis -2 only on the kept columns k2 <= n/3, in place, with the same
    bits there; then every mode the rule removes is zeroed.

    The self-paired columns k2 = 0 and n/2 are replaced by their Hermitian
    parts (under the rule only k2 = 0: the other is zero), so every
    coefficient pair they hold is exactly Hermitian.
    """
    if dealias:
        half = np.fft.rfft(values, axis=-1, out=out)
        cols = half[..., :grid._kept_cols]
        np.fft.fft(cols, axis=-2, out=cols)
        _zero_dropped(half, grid)
        self_paired = (0,)  # the rule has just zeroed the column n/2
    else:
        half = np.fft.rfft2(values, out=out)
        self_paired = (0, grid.n // 2)
    for j in self_paired:
        col = half[..., j]
        half[..., j] = 0.5 * (col + np.conj(col[..., grid._mirror_rows]))
    return half


def _zero_dropped(half: np.ndarray, grid: Grid) -> None:
    """Zero in place the modes of half spectra (..., n, n/2 + 1) that the 2/3
    rule removes (``grid._drop_half``), as two slice fills: the columns
    k2 > n/3, then the rows n/3 < |k1| of the kept columns."""
    half[..., grid._kept_cols:] = 0.0
    half[..., grid._dropped_rows, :grid._kept_cols] = 0.0


def _in_ball(half: np.ndarray, grid: Grid) -> bool:
    """Whether every mode of half spectra (..., n, n/2 + 1) that the 2/3 rule
    removes is zero, scanned as the two slices :func:`_zero_dropped` fills
    (NaN counts as nonzero).  Such planes are unchanged by the rule, so
    ``_to_physical(..., dealias=True)`` gives them the bits of ``irfft2``."""
    return not (half[..., grid._kept_cols:].any()
                or half[..., grid._dropped_rows, :grid._kept_cols].any())


def _full_layout(half: np.ndarray, grid: Grid) -> np.ndarray:
    """Read-only ``fft2``-layout planes (..., n, n) of half spectra
    (..., n, n/2 + 1), the columns k2 > n/2 completed by the mirror."""
    n, h = grid.n, grid.n // 2 + 1
    out = np.empty(half.shape[:-1] + (n,), dtype=np.complex128)
    out[..., :h] = half
    # coeff(k1, -k2) = conj(coeff(-k1, k2)); row -0 is row 0, row -k1 is n - k1
    np.conjugate(half[..., :1, h - 2:0:-1], out=out[..., :1, h:])
    np.conjugate(half[..., :0:-1, h - 2:0:-1], out=out[..., 1:, h:])
    return _read_only(out)


_scratch = threading.local()


def _workspace(user: str, shape: tuple[int, ...], dtype=np.complex128) -> np.ndarray:
    """A contiguous ``shape`` view of this thread's scratch array for ``user``
    (uninitialised contents).  Each (user, dtype) has one flat array, grown
    to the largest size asked of it, so callers whose shapes vary (lane
    counts, battery batches) reuse it; two uses live at once must name
    different users.  The stepper's per-stage arrays and the operator
    battery's batch temporaries live here, so a step or a batch takes no
    page faults (freed 0.1-1 MB temporaries used to come back as hundreds
    per step), and threads may step concurrently.  The view of each
    (user, shape, dtype) is built once and handed out again (a step asks
    for a dozen); growing a buffer drops every view of the old one.  A
    workspace array must never be returned to a caller or cached on a
    value.
    """
    views = _scratch.__dict__.setdefault("views", {})
    view = views.get((user, shape, dtype))
    if view is not None:
        return view
    size, kind = math.prod(shape), np.dtype(dtype)
    bufs = _scratch.__dict__.setdefault("bufs", {})
    buf = bufs.get((user, kind))
    if buf is None or buf.size < size:
        # a private anonymous map of its own, not a malloc block: a buffer
        # that lives on inside malloc's heap pins it, which changes when
        # malloc hands freed memory back to the system, and so the page
        # faults of every later allocation in the process
        pages = mmap.mmap(-1, max(size, 1) * kind.itemsize,
                          flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        buf = bufs[user, kind] = np.frombuffer(pages, dtype=kind)
        for key in [key for key in views if key[0] == user and np.dtype(key[2]) == kind]:
            del views[key]
    view = views[user, shape, dtype] = buf[:size].reshape(shape)
    return view


def _mapped(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a`` in a private anonymous map of its own, for a
    multiplier built on first use that lives as long as the process: inside
    malloc's heap it would pin it, as a workspace buffer would."""
    pages = mmap.mmap(-1, max(a.nbytes, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    out = np.frombuffer(pages, dtype=a.dtype, count=a.size).reshape(a.shape)
    out[...] = a
    return _read_only(out)


def _physical(f: SpectralField, oversample: int) -> np.ndarray:
    if oversample == 1:
        return f.values()
    return resample(f, f.grid.n * oversample).values()


def linf_norm(f: SpectralField, oversample: int = 1) -> float:
    """Sup norm sampled on the (optionally oversampled) collocation grid."""
    return float(np.max(np.abs(_physical(f, oversample))))


def lp_norm(f: SpectralField, p: float, oversample: int = 1) -> float:
    """L^p norm by collocation quadrature, p in [2, inf)."""
    if p < 2:
        raise ValueError(f"lp_norm requires p >= 2, got {p}")
    vals = _physical(f, oversample)
    spacing = 2.0 * np.pi / vals.shape[0]
    return float((np.sum(np.abs(vals) ** p) * spacing**2) ** (1.0 / p))


def resample(f: SpectralField, m: int) -> SpectralField:
    """Trigonometric resampling onto an m x m grid by zero padding (m >= n)."""
    n = f.grid.n
    if m == n:
        return f
    if m < n or m % 2 != 0:
        raise ValueError("resample target must be an even integer >= n")
    h = n // 2
    # split each Nyquist line evenly between +h and -h so the padded spectrum
    # stays Hermitian (the corner coefficient ends up quartered); rows k1 = +-h
    # both read the shared source row h, and land on distinct rows since m > n
    src = f.half.copy()
    src[h, :] *= 0.5
    src[:, h] *= 0.5
    ks, cols = np.arange(-h, h + 1), np.arange(h + 1)
    out = np.zeros((m, m // 2 + 1), dtype=np.complex128)
    out[np.ix_(ks % m, cols)] = src[np.ix_(ks % n, cols)]
    return SpectralField(Grid(m), out * (m / n) ** 2)


def random_field(grid: Grid, rng: np.random.Generator, band: int,
                 amplitude: float = 1.0, decay: float = 0.0,
                 zero_mean: bool = False) -> SpectralField:
    """Random real band-limited field with max(|k1|, |k2|) <= band.

    Coefficient magnitudes fall off like (1 + |k|^2)^(-decay/2); the field is
    rescaled so its L2 norm equals ``amplitude`` (zero-amplitude draws are
    left as zero).  ``zero_mean`` clears the k = 0 mode, as required of
    vorticity fields.

    The draw is an (n, n) array raw of complex normals (the real parts
    drawn first) in the ``fft2`` layout, and :func:`_box_field` forms the
    field from its band's modes, as it does for the operator battery's draw
    of the band's box alone.
    """
    return _box_field(grid, rng.standard_normal((2, grid.n**2)), band, amplitude, decay, zero_mean)


def _box_field(grid: Grid, normals: np.ndarray, band: int, amplitude: float = 1.0,
               decay: float = 0.0, zero_mean: bool = False) -> SpectralField:
    """The :func:`random_field` of the normals (2, m * m), the real and
    imaginary parts of raw(k) in the ``fft2`` layout of an m-point grid
    holding the box max(|k1|, |k2|) <= band (m = n, or the box's 2 band + 1):
    only the band's modes of the half spectrum are formed, each the
    Hermitian average of raw(k) and conj(raw(-k)), then normalized on the
    whole half."""
    n = grid.n
    re, im = normals
    at, mirror, sd_at, sd_mirror = _band_gather(grid, band, decay, math.isqrt(re.size))
    raw = re[at] + 1j * im[at]
    raw_mirror = re[mirror] + 1j * im[mirror]
    if decay:
        raw = raw * sd_at
        raw_mirror = raw_mirror * sd_mirror
    sym = 0.5 * (raw + np.conj(raw_mirror))
    half = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    half[:band + 1, :band + 1] = sym[:band + 1]
    half[n - band:, :band + 1] = sym[band + 1:]
    if zero_mean:
        half[0, 0] = 0.0
    norm = float(np.sqrt(max(_inner_half(half, half), 0.0)))
    if norm > 0:
        np.multiply(half, amplitude / norm, out=half)
    return SpectralField(grid, half)


@lru_cache(maxsize=32)
def _band_gather(grid: Grid, band: int, decay: float, m: int) -> tuple:
    """Flat indices, in the ``fft2`` layout of an m-point grid, of the modes
    k of the half spectrum with max(|k1|, |k2|) <= band, as
    (2 band + 1, band + 1) blocks of the rows k1 = 0..band, -band..-1 and
    the columns k2 = 0..band, and of their mirrors -k; with the factor
    (1 + |k|^2)^(-decay/2) at each, read from one array over the whole grid
    (None without decay)."""
    n = grid.n
    if band > n // 2 - 1:
        raise ValueError("band exceeds grid resolution")
    rows, cols = np.r_[0:band + 1, -band:0], np.arange(band + 1)

    def flat(k1, k2, size):
        return _read_only((k1 % size)[:, None] * size + k2 % size)

    at, mirror = flat(rows, cols, m), flat(-rows, -cols, m)
    if not decay:
        return at, mirror, None, None
    sd = ((1.0 + grid.ksq) ** (-decay / 2.0)).ravel()
    return at, mirror, _read_only(sd[flat(rows, cols, n)]), _read_only(sd[flat(-rows, -cols, n)])


def random_divergence_free(grid: Grid, rng: np.random.Generator, band: int,
                           amplitude: float = 1.0) -> VelocityField:
    """Random divergence-free field from a random band-limited stream function."""
    psi = random_field(grid, rng, band, amplitude)
    return stream_to_velocity(psi)
