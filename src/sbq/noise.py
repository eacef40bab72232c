"""Divergence-free noise vector fields and Brownian increments.

Each noise field is the perpendicular gradient of a single trigonometric
stream function, so divergence-freeness holds by construction.  The default
family uses amplitudes ``sigma * |k|**-gamma`` over ``0 < |k| <= k_max``,
which keeps the summed squared H^3 norms finite for the corresponding
infinite family (decay exponent gamma = 5 is more than enough in 2D).

Seeding: realization ``i`` of a run with ``master_seed`` uses the stream seed
``mix_seed(master_seed, i)``, the splitmix64 avalanche finalizer applied to
``master_seed XOR (i * golden-ratio-odd-constant)``.  The constants are fixed
here so runs are reproducible for a given package version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import (
    Grid,
    SpectralField,
    VelocityField,
    sobolev_norm,
    stream_to_velocity,
)

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
    fields: tuple  # VelocityField per mode
    h3_budget: float
    grid: Grid
    sup_total: float = field(default=0.0)  # sum_i sup |xi_i|, for the CFL guard

    def __len__(self) -> int:
        return len(self.fields)

    @cached_property
    def ito_diagonals(self) -> tuple[np.ndarray, tuple]:
        """Fourier form of the Ito correction C f = 1/2 sum_i P L_xi_i P L_xi_i P f.

        Returns ``(d0, shifted)`` with ``shifted`` a tuple of ``(offset, d)``
        pairs, so that in the fft2 layout
        ``(C f)^[m] = d0[m] f^[m] + sum d[m] f^[m - offset]`` (indices mod n),
        i.e. ``d * np.roll(f^, offset)``.  Built on first use, from the modes
        alone (see :func:`_ito_diagonals`).
        """
        return _ito_diagonals(self.modes, self.grid)


def _ito_diagonals(modes: tuple, grid: Grid) -> tuple[np.ndarray, tuple]:
    """Exact diagonals of 1/2 sum_i P L_xi_i P L_xi_i P for the given modes.

    A mode psi = a trig(k . x) gives xi = grad-perp psi, whose fft2
    coefficients sit at +-k only: n^2 s (a/2) g_+- k_perp, with
    k_perp = (-k2, k1), s = (-1)^(k1 + k2) (the grid starts at x = -pi), and
    g_+ = i, g_- = -i for a cosine, g_+ = g_- = 1 for a sine.  With K[m] the
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
                d.setflags(write=False)
                shifted.append(((2 * s[0], 2 * s[1]), d))
    d0.setflags(write=False)
    return d0, tuple(shifted)


def empty_basis(grid: Grid) -> NoiseBasis:
    """The basis with no modes: the noise is switched off."""
    return NoiseBasis((), (), 0.0, grid, 0.0)


def _h3_squared(v: VelocityField) -> float:
    return sobolev_norm(v.u1, 3.0) ** 2 + sobolev_norm(v.u2, 3.0) ** 2


def build_basis(spec: list, grid: Grid) -> NoiseBasis:
    """Realize stream-function modes as divergence-free velocity fields.

    Rejects the zero wavevector (constant stream function, zero field) and
    wavevectors outside the dealiasing ball, which would be destroyed by the
    2/3 rule before reaching the dynamics.
    """
    modes = []
    for entry in spec:
        if isinstance(entry, NoiseMode):
            modes.append(entry)
        else:
            k, phase, amp = entry
            modes.append(NoiseMode((int(k[0]), int(k[1])), phase, float(amp)))
    fields = []
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
        arg = k1 * grid.x + k2 * grid.y
        trig = np.cos(arg) if mode.phase == "cosine" else np.sin(arg)
        psi = SpectralField.from_physical(grid, mode.amplitude * trig)
        fields.append(stream_to_velocity(psi))
    budget = sum(_h3_squared(v) for v in fields)
    sup = sum(v.sup_magnitude() for v in fields)
    return NoiseBasis(tuple(modes), tuple(fields), budget, grid, sup)


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
    const = SpectralField.from_physical(
        grid, float(amplitude) * np.ones((grid.n, grid.n)))
    zero = SpectralField.zero(grid)
    v = VelocityField(const, zero) if direction == "x" else VelocityField(zero, const)
    return NoiseBasis((ConstantShift(direction, float(amplitude)),), (v,),
                      _h3_squared(v), grid, abs(float(amplitude)))


@dataclass(frozen=True)
class BrownianIncrements:
    """One vector of independent N(0, dt) draws, one entry per noise mode."""

    values: np.ndarray
    dt: float


def sample_increments(rng: np.random.Generator, dt: float, m: int) -> BrownianIncrements:
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return BrownianIncrements(rng.normal(0.0, np.sqrt(dt), size=m), float(dt))
