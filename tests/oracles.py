"""Independent oracle paths for the test suite.

The production code differentiates by Fourier multipliers; these helpers
differentiate by high-order centered finite differences on a trigonometrically
refined grid, and integrate by plain collocation quadrature, so agreement is
a genuine cross-check rather than a tautology.

Refinement reuses ``sbq.spectral.resample`` (pure zero padding); its
correctness is pinned separately by the subsample round-trip test in
test_spectral.py, which involves no differentiation at all.

:func:`count_ffts` counts the 2-D transforms a call makes, for the tests
that pin how many a step, a record or a study pays.
"""

from __future__ import annotations

import numpy as np

from sbq.spectral import Grid, SpectralField, l2_norm, resample

# centered stencil coefficients: offsets 1..K with antisymmetric/symmetric use
_D1_COEFFS = {
    4: [(1, 2.0 / 3.0), (2, -1.0 / 12.0)],
    6: [(1, 3.0 / 4.0), (2, -3.0 / 20.0), (3, 1.0 / 60.0)],
}
_D2_COEFFS = {
    4: (-5.0 / 2.0, [(1, 4.0 / 3.0), (2, -1.0 / 12.0)]),
    6: (-49.0 / 18.0, [(1, 3.0 / 2.0), (2, -3.0 / 20.0), (3, 1.0 / 90.0)]),
}


def fd_derivative(values: np.ndarray, axis: int, h: float, order: int,
                  accuracy: int = 6) -> np.ndarray:
    """Centered finite-difference d^order/dx^order (order 1 or 2) with
    periodic wraparound."""
    if order == 1:
        out = np.zeros_like(values)
        for off, c in _D1_COEFFS[accuracy]:
            out += c * (np.roll(values, -off, axis) - np.roll(values, off, axis))
        return out / h
    if order == 2:
        center, pairs = _D2_COEFFS[accuracy]
        out = center * values.copy()
        for off, c in pairs:
            out += c * (np.roll(values, -off, axis) + np.roll(values, off, axis))
        return out / h**2
    raise ValueError("only first and second derivatives supported")


def fine_values(f: SpectralField, factor: int) -> np.ndarray:
    """Physical samples of f on a grid refined by ``factor``."""
    return resample(f, f.grid.n * factor).values()


def fd_derivative_on_refined(f: SpectralField, axis: str, order: int,
                             factor: int, accuracy: int = 6) -> np.ndarray:
    """FD derivative evaluated on the refined grid, subsampled back to the
    coarse collocation points."""
    fine = fine_values(f, factor)
    h = 2.0 * np.pi / fine.shape[0]
    ax = 0 if axis == "x" else 1
    if order <= 2:
        d = fd_derivative(fine, ax, h, order, accuracy)
    else:
        d = fine
        for _ in range(order):
            d = fd_derivative(d, ax, h, 1, accuracy)
    return d[::factor, ::factor]


def fd_laplacian(values: np.ndarray, h: float, accuracy: int = 6) -> np.ndarray:
    return (fd_derivative(values, 0, h, 2, accuracy)
            + fd_derivative(values, 1, h, 2, accuracy))


def quadrature(values: np.ndarray) -> float:
    """Integral over the torus by the trapezoid-equivalent collocation sum."""
    n = values.shape[0]
    return float(np.sum(values) * (2.0 * np.pi / n) ** 2)


def quadrature_inner(a: np.ndarray, b: np.ndarray) -> float:
    return quadrature(a * b)


def quadrature_sobolev_sq(f: SpectralField, k: int, factor: int = 8,
                          accuracy: int = 6) -> float:
    """||f||_{H^k}^2 for integer k via <(I - Lap)^k f, f> with FD Laplacians
    and dense quadrature; fully independent of the Bessel multiplier path."""
    fine = fine_values(f, factor)
    h = 2.0 * np.pi / fine.shape[0]
    powers = [fine]
    for _ in range(k):
        powers.append(fd_laplacian(powers[-1], h, accuracy))
    # (I - Lap)^k = sum_j C(k, j) (-Lap)^j
    from math import comb
    total = np.zeros_like(fine)
    for j in range(k + 1):
        total += comb(k, j) * (-1.0) ** j * powers[j]
    return quadrature_inner(total, fine)


def hs_field_reference(grid: Grid, s: float, rng: np.random.Generator,
                       amplitude: float, band: int | None = None,
                       zero_mean: bool = False) -> SpectralField:
    """The random_hs draw written out: complex normal coefficients scaled by
    (1 + |k|^2)^(-(s+1)/2 - 0.05), masked to the band (default n/3),
    Hermitian-symmetrized and rescaled to the requested L2 norm."""
    n = grid.n
    if band is None:
        band = int(n / 3.0)
    sd = (1.0 + grid.ksq) ** (-(s + 1.0) / 2.0 - 0.05)
    raw = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * sd
    raw = np.where(np.maximum(np.abs(grid.k1), np.abs(grid.k2)) <= band, raw, 0.0)
    idx = (-np.arange(n)) % n
    sym = 0.5 * (raw + np.conj(raw[np.ix_(idx, idx)]))
    if zero_mean:
        sym[0, 0] = 0.0
    f = SpectralField(grid, sym)
    norm = l2_norm(f)
    return f * (amplitude / norm) if norm > 0 else f


def count_ffts(monkeypatch, fn):
    """Number of 2-D ``numpy.fft`` calls made by ``fn()``."""
    count = [0]
    with monkeypatch.context() as mp:
        for name in ("fft2", "ifft2", "rfft2", "irfft2"):
            def counted(*args, _fn=getattr(np.fft, name), **kwargs):
                count[0] += 1
                return _fn(*args, **kwargs)
            mp.setattr(np.fft, name, counted)
        fn()
    return count[0]
