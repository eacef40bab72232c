"""Divergence-free noise vector fields and Brownian increments.

Each noise field is the perpendicular gradient of a single trigonometric
stream function, so divergence-freeness holds by construction.  The default
family uses amplitudes ``sigma * |k|**-gamma`` over ``0 < |k| <= k_max``,
which keeps the summed squared H^3 norms finite for the corresponding
infinite family (decay exponent gamma = 5 is more than enough in 2D).

Seeding: realization ``i`` of a run with ``master_seed`` uses the stream seed
``mix_seed(master_seed, i)``, the splitmix64 avalanche finalizer applied to
``master_seed XOR (i * golden-ratio-odd-constant)``.  The constants are fixed
here so runs are reproducible for a given package version.  Realizations
stepped together as lanes (:mod:`sbq.integrator`) each draw from their own
stream, one :func:`sample_increments` call per lane and step, and
:meth:`NoiseBasis.transport_half` turns the lanes' increments, one row per
lane, into their transport fields in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import Grid, SpectralField, VelocityField, _mapped, _read_only

__all__ = [
    "NoiseMode",
    "ConstantShift",
    "NoiseBasis",
    "empty_basis",
    "BrownianIncrements",
    "build_basis",
    "default_family",
    "constant_shift_basis",
    "sample_increments",
    "mix_seed",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix_seed(master_seed: int, index: int) -> int:
    """Derive a per-realization stream seed (splitmix64 finalizer)."""
    z = (int(master_seed) ^ ((index * _GOLDEN) & _MASK64)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class NoiseMode:
    """One stream-function mode: psi = amplitude * trig(k . x)."""

    wavevector: tuple[int, int]
    phase: str  # "cosine" or "sine"
    amplitude: float


@dataclass(frozen=True)
class ConstantShift:
    """Spatially constant noise field along one axis (exact-solution oracle)."""

    direction: str  # "x" or "y"
    amplitude: float


@dataclass(frozen=True)
class NoiseBasis:
    """Finite family of divergence-free fields with its H^3 budget."""

    modes: tuple
    h3_budget: float
    grid: Grid
    sup_total: float = field(default=0.0)  # sum_i sup |xi_i|, for the CFL guard

    def __len__(self) -> int:
        return len(self.modes)

    @cached_property
    def fields(self) -> tuple:
        """One VelocityField per mode, built on first use: w for a unit
        increment of that mode.  The stepper reads the modes alone."""
        return tuple(
            VelocityField(*(SpectralField(self.grid, c) for c in self.transport_half(e)))
            for e in np.eye(len(self.modes)))

    @cached_property
    def ito_diagonals(self) -> tuple[np.ndarray, tuple]:
        """Fourier form of the Ito correction C f = 1/2 sum_i P L_xi_i P L_xi_i P f.

        Returns ``(d0, shifted)`` with ``shifted`` a tuple of ``(offset, d)``
        pairs, so that in the fft2 layout
        ``(C f)^[m] = d0[m] f^[m] + sum d[m] f^[m - offset]`` (indices mod n),
        i.e. ``d * np.roll(f^, offset)``; ``shifted`` lists each wavevector's
        +-offset pair consecutively.  Built on first use, from the modes alone
        (see :func:`_ito_diagonals`).
        """
        return _ito_diagonals(self.modes, self.grid)

    @cached_property
    def ito_multiplier(self) -> np.ndarray:
        """The offset-0 diagonal ``d0`` of :attr:`ito_diagonals` on the half
        spectrum, contiguous and complex (zero imaginary parts): the
        stepper's multiplier, with the bits of the real ``d0[:, :n/2 + 1]``."""
        d0 = self.ito_diagonals[0][:, :self.grid.n // 2 + 1]
        return _mapped(d0.astype(np.complex128))

    @cached_property
    def _half_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """``(index, matrix)``: the flat half-spectrum positions the fields
        occupy and, per velocity component and position, each mode's
        coefficient there (shape (2, positions, modes)).  Built on first use
        from the modes alone."""
        n = self.grid.n
        h = n // 2 + 1
        positions = {}
        entries = []
        for i, mode in enumerate(self.modes):
            for row, col, c1, c2 in _mode_coefficients(mode, n):
                if col < h:
                    p = positions.setdefault(row * h + col, len(positions))
                    entries.append((p, i, c1, c2))
        matrix = np.zeros((2, len(positions), len(self.modes)), dtype=np.complex128)
        for p, i, c1, c2 in entries:
            matrix[:, p, i] += (c1, c2)
        return np.fromiter(positions, dtype=np.intp, count=len(positions)), matrix

    def transport_half(self, db: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Half-spectrum coefficients (..., 2, n, n/2 + 1) of the transport
        fields w = sum_i db_i xi_i, one per row of ``db`` (..., m), formed
        from the modes' exact coefficients; written into ``out``, zero-filled
        in place, when given (the stepper passes a workspace array)."""
        index, matrix = self._half_coefficients
        n = self.grid.n
        db = np.asarray(db, dtype=np.float64)
        lead = db.shape[:-1]
        if out is None:
            out = np.zeros((*lead, 2, n, n // 2 + 1), dtype=np.complex128)
        else:
            out.fill(0.0)
        # one matrix-vector product per row, as for a single row
        coefficients = np.matmul(matrix, db[..., None, :, None])
        out.reshape(*lead, 2, -1)[..., index] = coefficients[..., 0]
        return out


def _ito_diagonals(modes: tuple, grid: Grid) -> tuple[np.ndarray, tuple]:
    """Exact diagonals of 1/2 sum_i P L_xi_i P L_xi_i P for the given modes.

    Each field's fft2 coefficients sit at +-k only, n^2 s (a/2) g_+- k_perp
    in the notation of :func:`_mode_coefficients`.  With K[m] the
    signed wavenumber of index m, P the 2/3-rule mask and
    E[m] = P[m] (k_perp . K[m]), one dealiased transport reads, indices mod n,

        (P L_xi P f)^[m] = i s (a/2) sum_+- g_+- P[m] E[m -+ k] f^[m -+ k].

    Composing two of them gives the diagonals

    * offset 0:      -(a^2 / 8) E[m] (E[m - k] + E[m + k])   (g_+ g_- = 1),
    * offset +-2k:   -(w / 2) P[m] E[m -+ k] E[m -+ 2k],

    with w = (sum_sine a^2 - sum_cosine a^2) / 4 over the modes at +-k
    (g_+^2 = g_-^2 = -1 for a cosine and +1 for a sine; s^2 = 1).  A
    cosine/sine pair of equal amplitude has w == 0 exactly, so its +-2k
    diagonals are never built: the default family reduces to ``d0``, which
    is -1/2 a |m|^2 away from the dealias edge, where
    sum_i xi_i (x) xi_i = a I (the constant eddy diffusivity).  A constant
    shift of amplitude A along one axis contributes -1/2 A^2 K_axis^2 P to d0.
    """
    keep = grid.dealias_keep.astype(np.float64)
    k1, k2 = grid.k1.astype(np.float64), grid.k2.astype(np.float64)
    d0 = np.zeros((grid.n, grid.n))
    # modes at +-k share their diagonals: one entry per half-plane wavevector
    squares = {}  # k -> [sum of a^2, sum over sines of a^2 - sum over cosines]
    for mode in modes:
        if isinstance(mode, ConstantShift):
            kk = k1 if mode.direction == "x" else k2
            d0 -= 0.5 * mode.amplitude**2 * kk**2 * keep
            continue
        k = mode.wavevector
        if k[0] < 0 or (k[0] == 0 and k[1] < 0):
            k = (-k[0], -k[1])
        entry = squares.setdefault(k, [0.0, 0.0])
        entry[0] += mode.amplitude**2
        entry[1] += mode.amplitude**2 if mode.phase == "sine" else -mode.amplitude**2
    shifted = []
    for k, (total, signed) in squares.items():
        e = keep * (k[0] * k2 - k[1] * k1)
        # E[m - s] for s = k and s = -k
        e_shift = {s: np.roll(e, s, axis=(0, 1)) for s in (k, (-k[0], -k[1]))}
        d0 -= (total / 8.0) * e * sum(e_shift.values())
        if signed != 0.0:
            for s, e_s in e_shift.items():
                d = (-signed / 8.0) * keep * e_s * np.roll(e_s, s, axis=(0, 1))
                shifted.append(((2 * s[0], 2 * s[1]), _read_only(d)))
    return _read_only(d0), tuple(shifted)


def empty_basis(grid: Grid) -> NoiseBasis:
    """The basis with no modes: the noise is switched off."""
    return NoiseBasis((), 0.0, grid, 0.0)


def _mode_coefficients(mode, n: int) -> list[tuple[int, int, complex, complex]]:
    """fft2-layout coefficients of one noise field as (row, column, u1, u2)
    entries; every other coefficient is zero.

    A mode psi = a trig(k . x) gives xi = grad-perp psi = (-d_y psi, d_x psi),
    whose coefficients sit at +-k only: n^2 s (a/2) g_+- k_perp, with
    k_perp = (-k2, k1), s = (-1)^(k1 + k2) (the grid starts at x = -pi), and
    g_+ = i, g_- = -i for a cosine, g_+ = g_- = 1 for a sine.  A constant
    shift of amplitude A along one axis is n^2 A at k = 0 in that component.
    """
    if isinstance(mode, ConstantShift):
        c = n * n * mode.amplitude
        return [(0, 0, c, 0.0) if mode.direction == "x" else (0, 0, 0.0, c)]
    k1, k2 = mode.wavevector
    base = n * n * (-1) ** (k1 + k2) * mode.amplitude / 2.0
    g = (1j, -1j) if mode.phase == "cosine" else (1.0, 1.0)
    return [((sign * k1) % n, (sign * k2) % n, -k2 * base * g_s, k1 * base * g_s)
            for sign, g_s in zip((1, -1), g)]


def _h3_norm_sq(mode, grid: Grid) -> float:
    """Squared H^3 norm of a mode's field, from its exact coefficients."""
    h3 = sum((1.0 + grid.ksq[row, col]) ** 3 * (abs(c1) ** 2 + abs(c2) ** 2)
             for row, col, c1, c2 in _mode_coefficients(mode, grid.n))
    return h3 * (2.0 * np.pi) ** 2 / grid.n**4


def build_basis(spec: list, grid: Grid) -> NoiseBasis:
    """Realize stream-function modes as divergence-free velocity fields.

    The H^3 budget comes from the modes' exact Fourier coefficients
    (:func:`_mode_coefficients`), ``sup_total`` from samples of the
    trigonometric gradient; no transform, and no field until
    ``NoiseBasis.fields`` is read.  Rejects the zero wavevector (zero field)
    and wavevectors outside the dealiasing ball, which the 2/3 rule would
    destroy before they reach the dynamics.
    """
    modes = []
    for entry in spec:
        if isinstance(entry, NoiseMode):
            modes.append(entry)
        else:
            k, phase, amp = entry
            modes.append(NoiseMode((int(k[0]), int(k[1])), phase, float(amp)))
    budget = sup = 0.0
    for mode in modes:
        k1, k2 = mode.wavevector
        if k1 == 0 and k2 == 0:
            raise ValueError("noise mode wavevector must be nonzero")
        if max(abs(k1), abs(k2)) > grid.n / 3.0:
            raise ValueError(
                f"noise wavevector {mode.wavevector} outside the dealias ball "
                f"of grid n={grid.n}")
        if mode.phase not in ("cosine", "sine"):
            raise ValueError(f"phase must be 'cosine' or 'sine', got {mode.phase!r}")
        if mode.amplitude <= 0:
            raise ValueError("noise mode amplitude must be positive")
        budget += _h3_norm_sq(mode, grid)
        # |xi| = a |k| |trig'(k . x)|, |sin| for a cosine stream and |cos|
        # for a sine; over the grid k . x takes the values
        # -pi (k1 + k2) + m 2 pi / n, m running over multiples of gcd(k1, k2, n)
        stride = math.gcd(k1, k2, grid.n)
        arg = -np.pi * (k1 + k2) + grid.spacing * np.arange(0, grid.n, stride)
        slope = np.sin(arg) if mode.phase == "cosine" else np.cos(arg)
        sup += mode.amplitude * float(np.hypot(k1, k2)) * float(np.max(np.abs(slope)))
    return NoiseBasis(tuple(modes), budget, grid, sup)


def default_family(grid: Grid, gamma: float = 5.0, sigma: float = 0.1,
                   k_max: int = 4, max_modes: int | None = None) -> list[NoiseMode]:
    """Stream modes over half-plane wavevectors with 0 < |k| <= k_max.

    Amplitudes follow sigma * |k|**-gamma; each wavevector contributes a
    cosine and a sine mode.  ``max_modes`` truncates the canonically ordered
    list (by |k|^2, then k1, k2, cosine before sine).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    wavevectors = []
    for k1 in range(0, k_max + 1):
        for k2 in range(-k_max, k_max + 1):
            if k1 == 0 and k2 <= 0:
                continue  # half-plane representative: k1 > 0, or k1 == 0, k2 > 0
            if k1 * k1 + k2 * k2 <= k_max * k_max:
                wavevectors.append((k1, k2))
    wavevectors.sort(key=lambda k: (k[0] ** 2 + k[1] ** 2, k[0], k[1]))
    modes = []
    for k in wavevectors:
        amp = sigma * float(np.hypot(*k)) ** (-gamma)
        modes.append(NoiseMode(k, "cosine", amp))
        modes.append(NoiseMode(k, "sine", amp))
    if max_modes is not None:
        modes = modes[:max_modes]
    return modes


def constant_shift_basis(direction: str, amplitude: float, grid: Grid) -> NoiseBasis:
    """Single constant field (amplitude, 0) or (0, amplitude).

    Constants are divergence-free but have no periodic stream function, so
    the field is built directly from its zero-mode coefficients.
    """
    if direction not in ("x", "y"):
        raise ValueError(f"direction must be 'x' or 'y', got {direction!r}")
    if amplitude == 0:
        raise ValueError("constant shift amplitude must be nonzero")
    mode = ConstantShift(direction, float(amplitude))
    return NoiseBasis((mode,), _h3_norm_sq(mode, grid), grid, abs(float(amplitude)))


@dataclass(frozen=True)
class BrownianIncrements:
    """One vector of independent N(0, dt) draws, one entry per noise mode."""

    values: np.ndarray
    dt: float


def sample_increments(rng: np.random.Generator, dt: float, m: int) -> BrownianIncrements:
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return BrownianIncrements(rng.normal(0.0, np.sqrt(dt), size=m), float(dt))
